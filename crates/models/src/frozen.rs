use crate::{Architecture, ModelEvaluation};
use muffin_data::Dataset;
use muffin_nn::Mlp;
use muffin_tensor::Matrix;
use std::fmt;

/// A trained, frozen off-the-shelf model.
///
/// Once trained by [`crate::ModelPool::train`] or a
/// [`crate::FairnessMethod`], the model is immutable: Muffin freezes pool
/// members and only ever *reads* their output probabilities (paper
/// component ② — "we will freeze the parameters in the pretrained
/// off-the-shelf models … and train parameters in MLP only").
///
/// # Example
///
/// ```
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(2);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::shufflenet_v2_x1_0()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// let model = pool.get(0).expect("one model");
/// let probs = model.predict_proba(split.test.features());
/// assert_eq!(probs.cols(), split.test.num_classes());
/// ```
#[derive(Debug, Clone)]
pub struct FrozenModel {
    name: String,
    architecture: Architecture,
    projection: Matrix,
    mlp: Mlp,
}

muffin_json::impl_json!(struct FrozenModel { name, architecture, projection, mlp });

impl FrozenModel {
    /// Assembles a frozen model (used by the trainers in this crate).
    pub(crate) fn from_parts(
        name: String,
        architecture: Architecture,
        projection: Matrix,
        mlp: Mlp,
    ) -> Self {
        Self { name, architecture, projection, mlp }
    }

    /// Display name. Plain backbones use the architecture name; baseline
    /// retrainings append the method, e.g. `"DenseNet121+D(site)"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architecture descriptor this model was trained from.
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// Parameter count of the real CNN this model stands in for.
    pub fn reported_params(&self) -> u64 {
        self.architecture.reported_params()
    }

    /// Number of classes the model predicts.
    pub fn num_classes(&self) -> usize {
        self.mlp.spec().output_dim()
    }

    /// Checks that the projection feeds the network and the network's
    /// layer chain is consistent (see [`Mlp::check_shapes`]).
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        let input = self.mlp.spec().input_dim();
        if self.projection.cols() != input {
            return Err(format!(
                "projection has {} columns but the network reads {input}",
                self.projection.cols()
            ));
        }
        self.mlp.check_shapes()
    }

    /// Projects raw features into this architecture's view.
    pub(crate) fn project(&self, features: &Matrix) -> Matrix {
        features.matmul(&self.projection)
    }

    /// Class-probability matrix for each feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols()` differs from the training feature
    /// dimension.
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        self.mlp.predict_proba(&self.project(features))
    }

    /// Hard class predictions.
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.mlp.predict(&self.project(features))
    }

    /// Class probabilities and hard predictions from a **single** backbone
    /// forward pass — byte-identical to calling [`FrozenModel::predict_proba`]
    /// and [`FrozenModel::predict`] separately (predictions come from the
    /// logits, so no softmax tie-breaking is involved).
    pub fn outputs(&self, features: &Matrix) -> (Matrix, Vec<usize>) {
        self.mlp.predict_outputs(&self.project(features))
    }

    /// Evaluates accuracy and per-attribute unfairness on `dataset`.
    pub fn evaluate(&self, dataset: &Dataset) -> ModelEvaluation {
        ModelEvaluation::of(&self.predict(dataset.features()), dataset, self.name.clone())
    }
}

impl fmt::Display for FrozenModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackboneConfig, ModelPool};
    use muffin_data::IsicLike;
    use muffin_tensor::Rng64;

    fn trained() -> (FrozenModel, muffin_data::DatasetSplit) {
        let mut rng = Rng64::seed(42);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        (pool.get(0).expect("one model").clone(), split)
    }

    #[test]
    fn predictions_align_with_probabilities() {
        let (model, split) = trained();
        let probs = model.predict_proba(split.test.features());
        let preds = model.predict(split.test.features());
        assert_eq!(probs.argmax_rows(), preds);
    }

    #[test]
    fn outputs_match_separate_calls_bit_for_bit() {
        let (model, split) = trained();
        let (probs, preds) = model.outputs(split.test.features());
        assert_eq!(preds, model.predict(split.test.features()));
        let separate = model.predict_proba(split.test.features());
        for (x, y) in probs.iter_rows().flatten().zip(separate.iter_rows().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn probabilities_are_distributions() {
        let (model, split) = trained();
        let probs = model.predict_proba(split.test.features());
        for row in probs.iter_rows() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn evaluation_reports_every_attribute() {
        let (model, split) = trained();
        let eval = model.evaluate(&split.test);
        assert_eq!(eval.attributes.len(), split.test.schema().len());
        assert!(eval.accuracy > 1.0 / 8.0, "above chance: {}", eval.accuracy);
    }

    #[test]
    fn name_and_params_come_from_architecture() {
        let (model, _) = trained();
        assert_eq!(model.name(), "ResNet-18");
        assert_eq!(model.reported_params(), 11_689_512);
        assert_eq!(model.num_classes(), 8);
    }
}
