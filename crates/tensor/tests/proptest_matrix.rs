//! Property-based tests for the matrix substrate, running on the in-repo
//! `muffin-check` harness with pinned seeds.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_tensor::{argmax, logsumexp, Matrix};

fn config() -> Config {
    Config::cases(64).with_seed(0x7E45_0001)
}

fn gen_matrix(g: &mut Gen, max_dim: usize) -> Matrix {
    g.matrix(1..=max_dim, 1..=max_dim, -10.0, 10.0)
}

#[test]
fn transpose_is_involutive() {
    check("transpose twice is identity", config(), |g| gen_matrix(g, 8), |m| {
        prop_assert_eq!(m.transpose().transpose(), *m);
        Ok(())
    });
}

#[test]
fn matmul_identity_left_and_right() {
    check("identity is matmul-neutral", config(), |g| gen_matrix(g, 6), |m| {
        let left = Matrix::identity(m.rows()).matmul(m);
        let right = m.matmul(&Matrix::identity(m.cols()));
        prop_assert_eq!(&left, m);
        prop_assert_eq!(&right, m);
        Ok(())
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check(
        "A(B+C) = AB + AC",
        config(),
        |g| {
            let a = gen_matrix(g, 5);
            let cols = 4usize;
            let b = g.matrix_exact(a.cols(), cols, -1.0, 1.0);
            let c = g.matrix_exact(a.cols(), cols, -1.0, 1.0);
            (a, b, c)
        },
        |(a, b, c)| {
            let lhs = a.matmul(&(b + c));
            let rhs = &a.matmul(b) + &a.matmul(c);
            for (x, y) in lhs.iter_rows().flatten().zip(rhs.iter_rows().flatten()) {
                prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

#[test]
fn matmul_tn_agrees_with_naive() {
    check(
        "matmul_tn matches transpose-then-matmul",
        config(),
        |g| {
            let a = gen_matrix(g, 6);
            let b = g.matrix_exact(a.rows(), 3, -1.0, 1.0);
            (a, b)
        },
        |(a, b)| {
            let fast = a.matmul_tn(b);
            let slow = a.transpose().matmul(b);
            for (x, y) in fast.iter_rows().flatten().zip(slow.iter_rows().flatten()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
            Ok(())
        },
    );
}

#[test]
fn softmax_rows_are_distributions() {
    check("softmax rows sum to 1", config(), |g| gen_matrix(g, 8), |m| {
        let s = m.softmax_rows();
        for row in s.iter_rows() {
            let total: f32 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
        Ok(())
    });
}

#[test]
fn softmax_argmax_matches_logit_argmax() {
    check("softmax preserves argmax", config(), |g| gen_matrix(g, 8), |m| {
        let s = m.softmax_rows();
        for (logits, probs) in m.iter_rows().zip(s.iter_rows()) {
            prop_assert_eq!(argmax(logits), argmax(probs));
        }
        Ok(())
    });
}

#[test]
fn logsumexp_bounds() {
    check(
        "max <= logsumexp <= max + ln n",
        config(),
        |g| g.vec_f32(1..=19, -50.0, 50.0),
        |v| {
            let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = logsumexp(v);
            prop_assert!(lse >= max - 1e-4);
            prop_assert!(lse <= max + (v.len() as f32).ln() + 1e-4);
            Ok(())
        },
    );
}

#[test]
fn hcat_preserves_row_contents() {
    check(
        "hcat keeps left block and fills right",
        config(),
        |g| (gen_matrix(g, 5), g.usize_in(1..=4)),
        |(a, b_cols)| {
            let b = Matrix::filled(a.rows(), *b_cols, 2.5);
            let cat = Matrix::hcat(&[a, &b]).expect("matching rows");
            prop_assert_eq!(cat.cols(), a.cols() + b_cols);
            for r in 0..a.rows() {
                prop_assert_eq!(&cat.row(r)[..a.cols()], a.row(r));
                prop_assert!(cat.row(r)[a.cols()..].iter().all(|&x| x == 2.5));
            }
            Ok(())
        },
    );
}

#[test]
fn select_rows_picks_expected_rows() {
    check("select_rows reorders rows", config(), |g| gen_matrix(g, 6), |m| {
        let indices: Vec<usize> = (0..m.rows()).rev().collect();
        let sel = m.select_rows(&indices);
        for (out_r, &src_r) in indices.iter().enumerate() {
            prop_assert_eq!(sel.row(out_r), m.row(src_r));
        }
        Ok(())
    });
}

#[test]
fn matmul_into_is_byte_identical_to_matmul() {
    check(
        "matmul_into == matmul bytes (zeros and non-finites included)",
        config(),
        |g| {
            let rows = g.usize_in(1..=6);
            let inner = g.usize_in(1..=6);
            let cols = g.usize_in(1..=6);
            let mut a = g.matrix_exact(rows, inner, -5.0, 5.0);
            let mut b = g.matrix_exact(inner, cols, -5.0, 5.0);
            // Sprinkle zeros into `a` (exercises the lazy skip-zeros guard)
            // and occasionally a NaN/∞ into `b` (exercises its slow path).
            for x in a.iter_rows_mut().flatten() {
                if g.bool(0.4) {
                    *x = 0.0;
                }
            }
            for x in b.iter_rows_mut().flatten() {
                if g.bool(0.05) {
                    *x = if g.bool(0.5) { f32::NAN } else { f32::INFINITY };
                }
            }
            (a, b)
        },
        |(a, b)| {
            let mut out = Matrix::zeros(3, 3); // stale shape, must be reset
            a.matmul_into(b, &mut out);
            let fresh = a.matmul(b);
            prop_assert_eq!(out.shape(), fresh.shape());
            for (x, y) in out.iter_rows().flatten().zip(fresh.iter_rows().flatten()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // The transposed variants share the contract.
            let mut tn = Matrix::zeros(0, 0);
            a.transpose().matmul_tn_into(b, &mut tn);
            let tn_fresh = a.transpose().matmul_tn(b);
            for (x, y) in tn.iter_rows().flatten().zip(tn_fresh.iter_rows().flatten()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            let mut nt = Matrix::zeros(1, 1);
            a.matmul_nt_into(&b.transpose(), &mut nt);
            let nt_fresh = a.matmul_nt(&b.transpose());
            for (x, y) in nt.iter_rows().flatten().zip(nt_fresh.iter_rows().flatten()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        },
    );
}

#[test]
fn scaled_by_zero_is_zero() {
    check("scaling by zero zeroes", config(), |g| gen_matrix(g, 6), |m| {
        let z = m.scaled(0.0);
        prop_assert!(z.iter_rows().flatten().all(|&x| x == 0.0));
        Ok(())
    });
}

#[test]
fn json_round_trip_is_byte_identical() {
    check(
        "JSON round trip",
        config(),
        |g| gen_matrix(g, 11),
        |m| {
            let text = muffin_json::to_string(m);
            // Round trip restores every element bit (serialisation is
            // exact) and re-serialises to the same bytes.
            let back: Matrix = muffin_json::from_str(&text).map_err(|e| e.to_string())?;
            prop_assert_eq!(back.shape(), m.shape());
            for (x, y) in back.as_slice().iter().zip(m.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(&muffin_json::to_string(&back), &text);
            Ok(())
        },
    );
}

#[test]
fn block_copy_operations_agree_with_index_oracle() {
    check(
        "hcat/select_rows_into/col_sums_into/zip_apply vs get()",
        config(),
        |g: &mut Gen| {
            let a = gen_matrix(g, 9);
            let b_cols = g.usize_in(1..=9);
            let b = g.matrix_exact(a.rows(), b_cols, -9.0, 9.0);
            let picks: Vec<usize> = (0..g.usize_in(1..=6))
                .map(|_| g.usize_in(0..=a.rows() - 1))
                .collect();
            (a, b, picks)
        },
        |(a, b, picks)| {
            // hcat: element (r, c) comes from the part owning column c.
            let cat = Matrix::hcat(&[a, b]).map_err(|e| e.to_string())?;
            prop_assert_eq!(cat.shape(), (a.rows(), a.cols() + b.cols()));
            for r in 0..cat.rows() {
                for c in 0..cat.cols() {
                    let want = if c < a.cols() {
                        a.get(r, c)
                    } else {
                        b.get(r, c - a.cols())
                    };
                    prop_assert_eq!(cat.get(r, c).to_bits(), want.to_bits());
                }
            }

            // select_rows_into: row i of the output is row picks[i].
            let mut sel = Matrix::zeros(3, 3);
            a.select_rows_into(picks, &mut sel);
            prop_assert_eq!(sel.shape(), (picks.len(), a.cols()));
            for (i, &src) in picks.iter().enumerate() {
                for c in 0..a.cols() {
                    prop_assert_eq!(sel.get(i, c).to_bits(), a.get(src, c).to_bits());
                }
            }

            // col_sums_into: ascending-row fold per column.
            let mut sums = vec![f32::NAN; 2];
            a.col_sums_into(&mut sums);
            prop_assert_eq!(sums.len(), a.cols());
            for (c, &s) in sums.iter().enumerate() {
                let mut want = 0.0f32;
                for r in 0..a.rows() {
                    want += a.get(r, c);
                }
                prop_assert_eq!(s.to_bits(), want.to_bits());
            }

            // zip_apply: element-wise.
            let other = a.map(|x| x * 0.5 - 1.0);
            let mut applied = a.clone();
            applied.zip_apply(&other, |x, y| x - y);
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    let want = a.get(r, c) - other.get(r, c);
                    prop_assert_eq!(applied.get(r, c).to_bits(), want.to_bits());
                }
            }
            Ok(())
        },
    );
}

#[test]
fn row_range_is_byte_identical_to_select_rows() {
    check(
        "row_range == select_rows bytes",
        config(),
        |g| {
            let m = gen_matrix(g, 9);
            let start = g.usize_in(0..=m.rows());
            let end = g.usize_in(start..=m.rows());
            (m, start, end)
        },
        |(m, start, end)| {
            let indices: Vec<usize> = (*start..*end).collect();
            let want = m.select_rows(&indices);
            let got = m.row_range(*start..*end);
            prop_assert_eq!(got.shape(), want.shape());
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // The reuse path overwrites a destination of another shape.
            let mut reused = Matrix::filled(3, 5, 1.25);
            m.row_range_into(*start..*end, &mut reused);
            prop_assert_eq!(reused.shape(), want.shape());
            for (x, y) in reused.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        },
    );
}

#[test]
#[should_panic(expected = "out of bounds")]
fn row_range_panics_past_the_last_row() {
    let m = Matrix::filled(4, 3, 1.0);
    let _ = m.row_range(2..5);
}
