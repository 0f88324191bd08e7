//! Model-pool persistence.
//!
//! Training a full pool is the most expensive step of every experiment, so
//! pools can be serialised to JSON and reloaded — the frozen models carry
//! their projections and trained MLP weights verbatim.

use crate::ModelPool;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Error raised when saving or loading a model pool.
#[derive(Debug)]
pub enum PoolIoError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file contents are not a valid serialised pool.
    Parse(String),
}

impl fmt::Display for PoolIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolIoError::Io(e) => write!(f, "pool io failed: {e}"),
            PoolIoError::Parse(msg) => write!(f, "pool parse failed: {msg}"),
        }
    }
}

impl Error for PoolIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PoolIoError::Io(e) => Some(e),
            PoolIoError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for PoolIoError {
    fn from(e: std::io::Error) -> Self {
        PoolIoError::Io(e)
    }
}

impl ModelPool {
    /// Serialises the pool (architectures, projections, trained weights)
    /// to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`PoolIoError::Io`] if the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PoolIoError> {
        let json = muffin_json::to_string(self);
        fs::write(path, json)?;
        Ok(())
    }

    /// Loads a pool previously written by [`ModelPool::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`PoolIoError::Io`] if the file cannot be read and
    /// [`PoolIoError::Parse`] if it is not a valid pool, including one
    /// whose layer shapes do not chain (which would panic on predict).
    pub fn load_json(path: impl AsRef<Path>) -> Result<ModelPool, PoolIoError> {
        let text = fs::read_to_string(path)?;
        let pool: ModelPool =
            muffin_json::from_str(&text).map_err(|e| PoolIoError::Parse(e.to_string()))?;
        for (i, model) in pool.iter().enumerate() {
            model
                .check_shapes()
                .map_err(|e| PoolIoError::Parse(format!("model {i} ({}): {e}", model.name())))?;
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, BackboneConfig, ModelPool};
    use muffin_data::IsicLike;
    use muffin_json::{Json, ToJson};
    use muffin_tensor::Rng64;

    #[test]
    fn pool_round_trips_with_identical_predictions() {
        let mut rng = Rng64::seed(70);
        let split = IsicLike::small().with_num_samples(300).generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::shufflenet_v2_x1_0()],
            &BackboneConfig::fast().with_epochs(3),
            &mut rng,
        );
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("pool.json");
        pool.save_json(&path).expect("save");
        let loaded = ModelPool::load_json(&path).expect("load");
        assert_eq!(loaded.len(), pool.len());
        let a = pool.get(0).unwrap().predict(split.test.features());
        let b = loaded.get(0).unwrap().predict(split.test.features());
        assert_eq!(a, b, "reloaded pool must predict identically");
        std::fs::remove_file(path).ok();
    }

    /// Looks up `key` in a JSON object.
    fn entry<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        match json {
            Json::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object, found {}", other.kind()),
        }
    }

    #[test]
    fn pool_whose_layers_do_not_chain_is_a_parse_error() {
        let mut rng = Rng64::seed(71);
        let split = IsicLike::small()
            .with_num_samples(200)
            .generate(&mut rng)
            .split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast().with_epochs(1),
            &mut rng,
        );
        // Drop one row of layer 1's weight, keeping its data length
        // consistent, so the matrix decodes but no longer follows layer 0.
        let mut json = pool.to_json();
        let Json::Arr(models) = entry(&mut json, "models") else {
            panic!("models array")
        };
        let Json::Arr(layers) = entry(entry(&mut models[0], "mlp"), "layers") else {
            panic!("layers array")
        };
        let weight = entry(&mut layers[1], "weight");
        let (Json::Int(rows), Json::Int(cols)) =
            (entry(weight, "rows").clone(), entry(weight, "cols").clone())
        else {
            panic!("integer shape")
        };
        *entry(weight, "rows") = Json::Int(rows - 1);
        let Json::Arr(data) = entry(weight, "data") else {
            panic!("data array")
        };
        data.truncate(((rows - 1) * cols) as usize);

        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("unchained.json");
        std::fs::write(&path, json.to_string()).expect("write");
        let err = ModelPool::load_json(&path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, PoolIoError::Parse(_)), "{msg}");
        assert!(msg.contains("model 0") && msg.contains("layer 1"), "{msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelPool::load_json("/nonexistent/pool.json").unwrap_err();
        assert!(matches!(err, PoolIoError::Io(_)));
    }

    #[test]
    fn garbage_is_parse_error() {
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "[not a pool]").expect("write");
        let err = ModelPool::load_json(&path).unwrap_err();
        assert!(matches!(err, PoolIoError::Parse(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_pool_error_carries_line_and_column() {
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("malformed.json");
        // Unterminated object opens on line 2.
        std::fs::write(&path, "{\n  \"models\": [tru]\n}").expect("write");
        let err = ModelPool::load_json(&path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, PoolIoError::Parse(_)));
        assert!(msg.contains("line 2"), "missing line in: {msg}");
        assert!(msg.contains("column"), "missing column in: {msg}");
        std::fs::remove_file(path).ok();
    }
}
