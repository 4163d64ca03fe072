//! The model zoo: one named recipe per Table IV transformer baseline.
//!
//! A [`FineTuneRecipe`] bundles the architecture configuration and fine-tuning
//! hyper-parameters of one named model. Two profiles are provided:
//!
//! * [`FineTuneRecipe::paper`] keeps the paper's §III-A hyper-parameters verbatim
//!   where they transfer — batch sizes (16 for the BERT family, 8 for Flan-T5 and
//!   XLNet, 4 for GPT-2) and 10 epochs — with the paper's learning rates (1e-3 /
//!   3e-4) used as Adam learning rates for the from-scratch analogues;
//! * [`FineTuneRecipe::fast`] shrinks the architecture and epoch count so the full
//!   Table IV sweep (9 models × k folds) fits in a benchmark run; the relative
//!   ordering of the models is preserved.
//!
//! Pre-initialisation provenance follows the substitution documented in DESIGN.md:
//! the MentalBERT analogue pretrains in-domain, every other analogue pretrains on a
//! domain-degraded copy.

use crate::config::{ModelConfig, ModelKind};
use crate::pretrain::PretrainConfig;
use crate::trainer::{FineTuneConfig, Trainer};

/// A named, ready-to-train recipe.
#[derive(Debug, Clone)]
pub struct FineTuneRecipe {
    /// Which baseline this is.
    pub kind: ModelKind,
    /// Architecture configuration.
    pub model: ModelConfig,
    /// Fine-tuning configuration.
    pub finetune: FineTuneConfig,
}

impl FineTuneRecipe {
    /// The paper-faithful recipe for a model kind.
    ///
    /// Learning rates and batch sizes follow §III-A: BERT/DistilBERT/MentalBERT use
    /// lr 1e-3 and batch 16; Flan-T5 uses lr 3e-4 and batch 8; XLNet uses lr 1e-3 and
    /// batch 8; GPT-2 uses lr 3e-4 and batch 4. All fine-tune for 10 epochs.
    pub fn paper(kind: ModelKind, n_classes: usize, seed: u64) -> Self {
        let model = ModelConfig::for_kind(kind, n_classes);
        let (learning_rate, batch_size) = match kind {
            ModelKind::Bert | ModelKind::DistilBert | ModelKind::MentalBert => (1e-3, 16),
            ModelKind::FlanT5 => (3e-4, 8),
            ModelKind::Xlnet => (1e-3, 8),
            ModelKind::Gpt2 => (3e-4, 4),
        };
        let finetune = FineTuneConfig {
            learning_rate,
            batch_size,
            epochs: 10,
            subword_vocab_size: model.vocab_size,
            pretrain: Some(Self::pretrain_for(kind)),
            seed,
            ..FineTuneConfig::default()
        };
        Self {
            kind,
            model,
            finetune,
        }
    }

    /// A reduced-cost recipe with the same relative structure (used by benches and
    /// integration tests so the full model sweep stays fast).
    pub fn fast(kind: ModelKind, n_classes: usize, seed: u64) -> Self {
        let mut recipe = Self::paper(kind, n_classes, seed);
        recipe.model.hidden_dim = 32;
        recipe.model.n_heads = 2;
        recipe.model.ff_dim = 64;
        recipe.model.max_len = 48;
        recipe.model.n_layers = match kind {
            ModelKind::DistilBert => 1,
            _ => 2,
        };
        recipe.finetune.epochs = 6;
        recipe.finetune.subword_vocab_size = 800;
        recipe.finetune.learning_rate = recipe.finetune.learning_rate.max(1e-3);
        if let Some(pretrain) = &mut recipe.finetune.pretrain {
            pretrain.max_sequences = Some(300);
        }
        recipe
    }

    /// The pre-initialisation provenance for a model kind.
    fn pretrain_for(kind: ModelKind) -> PretrainConfig {
        match kind {
            ModelKind::MentalBert => PretrainConfig::in_domain(),
            _ => PretrainConfig::generic(),
        }
    }

    /// Build a trainer from this recipe.
    pub fn build(&self) -> Trainer {
        Trainer::new(self.kind, self.model.clone(), self.finetune.clone())
    }
}

/// Convenience: a ready-to-train model for a kind, with the paper recipe.
pub fn build_model(kind: ModelKind, n_classes: usize, seed: u64) -> Trainer {
    FineTuneRecipe::paper(kind, n_classes, seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_recipes_match_section_3a_hyperparameters() {
        let bert = FineTuneRecipe::paper(ModelKind::Bert, 6, 1);
        assert_eq!(bert.finetune.batch_size, 16);
        assert_eq!(bert.finetune.epochs, 10);
        assert!((bert.finetune.learning_rate - 1e-3).abs() < 1e-12);

        let t5 = FineTuneRecipe::paper(ModelKind::FlanT5, 6, 1);
        assert_eq!(t5.finetune.batch_size, 8);
        assert!((t5.finetune.learning_rate - 3e-4).abs() < 1e-12);

        let xlnet = FineTuneRecipe::paper(ModelKind::Xlnet, 6, 1);
        assert_eq!(xlnet.finetune.batch_size, 8);
        assert!((xlnet.finetune.learning_rate - 1e-3).abs() < 1e-12);

        let gpt2 = FineTuneRecipe::paper(ModelKind::Gpt2, 6, 1);
        assert_eq!(gpt2.finetune.batch_size, 4);
        assert!((gpt2.finetune.learning_rate - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn only_mentalbert_pretrains_in_domain() {
        for kind in ModelKind::ALL {
            let recipe = FineTuneRecipe::paper(kind, 6, 1);
            let pretrain = recipe
                .finetune
                .pretrain
                .expect("all recipes pre-initialise");
            if kind == ModelKind::MentalBert {
                assert!(
                    !pretrain.degrade_domain,
                    "MentalBERT should pretrain in-domain"
                );
            } else {
                assert!(
                    pretrain.degrade_domain,
                    "{kind:?} should pretrain on degraded text"
                );
            }
        }
    }

    #[test]
    fn fast_recipes_are_smaller_but_valid() {
        for kind in ModelKind::ALL {
            let paper = FineTuneRecipe::paper(kind, 6, 1);
            let fast = FineTuneRecipe::fast(kind, 6, 1);
            fast.model.validate();
            assert!(fast.model.hidden_dim <= paper.model.hidden_dim);
            assert!(fast.finetune.epochs < paper.finetune.epochs);
            assert_eq!(fast.kind, kind);
        }
    }

    #[test]
    fn build_produces_an_untrained_trainer() {
        let trainer = build_model(ModelKind::DistilBert, 6, 3);
        assert_eq!(trainer.kind(), ModelKind::DistilBert);
        assert!(trainer.model().is_none());
    }
}
