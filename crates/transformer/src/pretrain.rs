//! Masked-language-model domain-adaptive pre-initialisation.
//!
//! The paper's transformer baselines start from *pretrained* checkpoints; MentalBERT's
//! advantage over BERT is precisely that its pretraining corpus is mental-health text.
//! With no checkpoints available offline, this module reproduces the *mechanism*: a
//! short masked-token prediction phase over the unlabeled corpus that initialises the
//! embeddings and encoder before fine-tuning.
//!
//! Provenance is controlled by [`PretrainConfig::degrade_domain`]:
//!
//! * the **MentalBERT analogue** pretrains on the in-domain posts as-is;
//! * the **BERT / DistilBERT / Flan-T5 / XLNet / GPT-2 analogues** pretrain on a
//!   *domain-degraded* copy (word order shuffled within each post), which preserves
//!   unigram statistics but destroys the collocational structure — a stand-in for
//!   "generic web pretraining transfers less".
//!
//! The causal GPT-2 analogue keeps its causal mask during this phase, making the
//! objective effectively next-token-ish; that mirrors its autoregressive pretraining.

use crate::model::TransformerClassifier;
use holistix_linalg::Rng64;
use holistix_tensor::{clip_gradients, Adam, Graph, Optimizer};

/// Configuration of the masked-LM pre-initialisation stage.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Number of passes over the unlabeled corpus.
    pub epochs: usize,
    /// Fraction of non-special positions to mask per sequence.
    pub mask_probability: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Sequences per optimiser step.
    pub batch_size: usize,
    /// Shuffle word order within each text before encoding (domain degradation).
    pub degrade_domain: bool,
    /// RNG seed.
    pub seed: u64,
    /// Cap on the number of sequences used per epoch (keeps the stage cheap); `None`
    /// uses the full corpus.
    pub max_sequences: Option<usize>,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 2,
            mask_probability: 0.15,
            learning_rate: 1e-3,
            batch_size: 16,
            degrade_domain: false,
            seed: 42,
            max_sequences: Some(400),
        }
    }
}

impl PretrainConfig {
    /// The in-domain recipe (MentalBERT analogue).
    pub fn in_domain() -> Self {
        Self::default()
    }

    /// The domain-degraded recipe (generic-pretraining analogues).
    pub fn generic() -> Self {
        Self {
            degrade_domain: true,
            epochs: 1,
            ..Self::default()
        }
    }
}

/// Summary statistics of a pre-initialisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainSummary {
    /// Mean masked-LM loss of the first epoch.
    pub first_epoch_loss: f64,
    /// Mean masked-LM loss of the last epoch.
    pub last_epoch_loss: f64,
    /// Number of sequences used per epoch.
    pub sequences_per_epoch: usize,
}

/// Run masked-LM pre-initialisation of `model` on unlabeled `texts`.
pub fn pretrain_masked_lm(
    model: &mut TransformerClassifier,
    texts: &[&str],
    config: &PretrainConfig,
) -> PretrainSummary {
    assert!(
        config.mask_probability > 0.0 && config.mask_probability < 1.0,
        "mask probability must be in (0,1)"
    );
    let mut rng = Rng64::new(config.seed);
    let mut optimizer = Adam::with_lr(config.learning_rate);

    // Encode (and optionally degrade) the corpus once.
    let mut sequences: Vec<Vec<usize>> = texts
        .iter()
        .map(|t| {
            if config.degrade_domain {
                let mut words: Vec<String> = t.split_whitespace().map(|w| w.to_string()).collect();
                rng.shuffle(&mut words);
                model.encode(&words.join(" "))
            } else {
                model.encode(t)
            }
        })
        .collect();
    if let Some(cap) = config.max_sequences {
        rng.shuffle(&mut sequences);
        sequences.truncate(cap);
    }
    let sequences_per_epoch = sequences.len();
    if sequences.is_empty() {
        return PretrainSummary {
            first_epoch_loss: 0.0,
            last_epoch_loss: 0.0,
            sequences_per_epoch: 0,
        };
    }

    let pad = model.tokenizer().pad_id();
    let cls = model.tokenizer().cls_id();
    let sep = model.tokenizer().sep_id();
    let mask_id = model.tokenizer().mask_id();

    let mut first_epoch_loss = 0.0;
    let mut last_epoch_loss = 0.0;
    for epoch in 0..config.epochs.max(1) {
        let mut order: Vec<usize> = (0..sequences.len()).collect();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            model.store_mut().zero_grads();
            let mut graph = Graph::new();
            let mut batch_loss = None;
            let mut contributing = 0usize;
            for &seq_idx in chunk {
                let original = &sequences[seq_idx];
                // Choose maskable positions (real content tokens only).
                let candidates: Vec<usize> = original
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t != pad && t != cls && t != sep)
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let n_mask = ((candidates.len() as f64 * config.mask_probability).round() as usize)
                    .clamp(1, candidates.len());
                let mut positions = candidates.clone();
                rng.shuffle(&mut positions);
                positions.truncate(n_mask);
                let targets: Vec<usize> = positions.iter().map(|&p| original[p]).collect();
                let mut masked = original.clone();
                for &p in &positions {
                    masked[p] = mask_id;
                }
                let hidden = model.encode_hidden(&mut graph, &masked, true, &mut rng);
                let logits = model.lm_logits(&mut graph, hidden, &positions);
                let loss = graph.cross_entropy(logits, &targets);
                batch_loss = Some(match batch_loss {
                    None => loss,
                    Some(acc) => graph.add(acc, loss),
                });
                contributing += 1;
            }
            let Some(total) = batch_loss else { continue };
            let mean = graph.scale(total, 1.0 / contributing.max(1) as f64);
            epoch_loss += graph.scalar(mean);
            batches += 1;
            graph.backward(mean, model.store_mut());
            clip_gradients(model.store_mut(), 5.0);
            optimizer.step(model.store_mut());
        }
        let mean_epoch = if batches == 0 {
            0.0
        } else {
            epoch_loss / batches as f64
        };
        if epoch == 0 {
            first_epoch_loss = mean_epoch;
        }
        last_epoch_loss = mean_epoch;
    }

    PretrainSummary {
        first_epoch_loss,
        last_epoch_loss,
        sequences_per_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelKind};
    use holistix_text::SubwordVocabBuilder;

    fn tiny_model() -> TransformerClassifier {
        let mut config = ModelConfig::for_kind(ModelKind::MentalBert, 6);
        config.hidden_dim = 16;
        config.n_heads = 2;
        config.ff_dim = 32;
        config.max_len = 12;
        let mut builder = SubwordVocabBuilder::new(200);
        for text in corpus_texts() {
            let words: Vec<&str> = text.split_whitespace().collect();
            builder.add_words(&words);
        }
        TransformerClassifier::new(config, "MentalBERT", builder.build(), 11)
    }

    fn corpus_texts() -> Vec<&'static str> {
        vec![
            "i feel exhausted and cannot sleep at night",
            "my job drains me and the money worries never stop",
            "i feel so alone without my friends around me",
            "life feels meaningless and i have no purpose",
            "i cannot concentrate on my exams and feel stupid",
            "i cry all the time and feel completely overwhelmed",
            "my anxiety keeps me awake and my sleep is ruined",
            "work stress and deadlines are crushing me every day",
        ]
    }

    #[test]
    fn masked_lm_loss_decreases() {
        let mut model = tiny_model();
        // Repeat the corpus so each epoch sees enough masked positions for the
        // epoch-mean loss to be a stable signal.
        let texts: Vec<&str> = corpus_texts().into_iter().cycle().take(40).collect();
        let config = PretrainConfig {
            epochs: 10,
            learning_rate: 3e-3,
            max_sequences: None,
            ..PretrainConfig::in_domain()
        };
        let summary = pretrain_masked_lm(&mut model, &texts, &config);
        assert_eq!(summary.sequences_per_epoch, texts.len());
        assert!(
            summary.last_epoch_loss < summary.first_epoch_loss * 0.95,
            "MLM loss did not drop: {} -> {}",
            summary.first_epoch_loss,
            summary.last_epoch_loss
        );
        assert!(!model.store().has_non_finite());
    }

    #[test]
    fn degraded_domain_differs_from_in_domain() {
        let texts = corpus_texts();
        let mut in_domain = tiny_model();
        let mut generic = tiny_model();
        let a = pretrain_masked_lm(
            &mut in_domain,
            &texts,
            &PretrainConfig {
                epochs: 2,
                max_sequences: None,
                ..PretrainConfig::in_domain()
            },
        );
        let b = pretrain_masked_lm(
            &mut generic,
            &texts,
            &PretrainConfig {
                epochs: 2,
                max_sequences: None,
                ..PretrainConfig::generic()
            },
        );
        // Both run, and the resulting embedding matrices are not identical.
        assert!(a.sequences_per_epoch > 0 && b.sequences_per_epoch > 0);
        let emb_a = in_domain
            .store()
            .value(in_domain.token_embedding_param())
            .clone();
        let emb_b = generic
            .store()
            .value(generic.token_embedding_param())
            .clone();
        assert_ne!(emb_a, emb_b);
    }

    #[test]
    fn empty_corpus_is_a_noop() {
        let mut model = tiny_model();
        let summary = pretrain_masked_lm(&mut model, &[], &PretrainConfig::in_domain());
        assert_eq!(summary.sequences_per_epoch, 0);
        assert_eq!(summary.first_epoch_loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "mask probability")]
    fn invalid_mask_probability_panics() {
        let mut model = tiny_model();
        let config = PretrainConfig {
            mask_probability: 0.0,
            ..PretrainConfig::default()
        };
        let _ = pretrain_masked_lm(&mut model, &["hello world"], &config);
    }
}
