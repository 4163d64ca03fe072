//! Architectural configuration for the transformer analogues.

/// The attention pattern a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Full bidirectional self-attention (BERT family, Flan-T5 encoder).
    Bidirectional,
    /// Causal (left-to-right) attention (GPT-2).
    Causal,
    /// Bidirectional attention with learned relative-position biases, standing in for
    /// XLNet's Transformer-XL style relative encoding.
    Relative,
}

/// How the sequence representation is pooled into a single vector for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooling {
    /// Use the representation of the leading `<cls>` token (BERT family).
    Cls,
    /// Mean over all non-padding positions (T5-style encoder pooling).
    Mean,
    /// Use the last non-padding position (GPT-2-style).
    LastToken,
}

/// The named baselines of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// BERT analogue.
    Bert,
    /// DistilBERT analogue (half depth).
    DistilBert,
    /// MentalBERT analogue (in-domain pre-initialisation).
    MentalBert,
    /// Flan-T5 analogue (mean pooling, GELU bottleneck head).
    FlanT5,
    /// XLNet analogue (relative-position attention).
    Xlnet,
    /// GPT-2 analogue (causal attention, last-token pooling).
    Gpt2,
}

impl ModelKind {
    /// All six kinds in the order Table IV lists them.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Bert,
        ModelKind::DistilBert,
        ModelKind::MentalBert,
        ModelKind::FlanT5,
        ModelKind::Xlnet,
        ModelKind::Gpt2,
    ];

    /// Display name matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Bert => "BERT",
            ModelKind::DistilBert => "DistilBERT",
            ModelKind::MentalBert => "MentalBERT",
            ModelKind::FlanT5 => "Flan-T5",
            ModelKind::Xlnet => "XLNet",
            ModelKind::Gpt2 => "GPT-2.0",
        }
    }
}

/// Architecture hyper-parameters of one transformer classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Hidden (embedding) dimension.
    pub hidden_dim: usize,
    /// Number of encoder layers.
    pub n_layers: usize,
    /// Number of attention heads (`hidden_dim` must be divisible by this).
    pub n_heads: usize,
    /// Feed-forward inner dimension.
    pub ff_dim: usize,
    /// Maximum sequence length in subword pieces (including `<cls>`/`<sep>`).
    pub max_len: usize,
    /// Dropout keep probability complement (0.1 = drop 10 %); 0 disables dropout.
    pub dropout: f64,
    /// Attention pattern.
    pub attention: AttentionKind,
    /// Pooling strategy.
    pub pooling: Pooling,
    /// Number of output classes.
    pub n_classes: usize,
    /// Target subword vocabulary size.
    pub vocab_size: usize,
    /// Layer-norm epsilon.
    pub layer_norm_eps: f64,
    /// Insert a GELU bottleneck between pooling and the classification head (the
    /// Flan-T5 analogue's stand-in for its decoder).
    pub bottleneck_head: bool,
}

impl ModelConfig {
    /// The shared small-analogue base configuration (hidden 48, 2 layers, 4 heads).
    pub fn base(n_classes: usize) -> Self {
        Self {
            hidden_dim: 48,
            n_layers: 2,
            n_heads: 4,
            ff_dim: 96,
            max_len: 64,
            dropout: 0.1,
            attention: AttentionKind::Bidirectional,
            pooling: Pooling::Cls,
            n_classes,
            vocab_size: 1200,
            layer_norm_eps: 1e-5,
            bottleneck_head: false,
        }
    }

    /// The configuration for a named model kind.
    pub fn for_kind(kind: ModelKind, n_classes: usize) -> Self {
        let base = Self::base(n_classes);
        match kind {
            ModelKind::Bert | ModelKind::MentalBert => base,
            ModelKind::DistilBert => Self {
                n_layers: 1,
                ..base
            },
            ModelKind::FlanT5 => Self {
                pooling: Pooling::Mean,
                bottleneck_head: true,
                ..base
            },
            ModelKind::Xlnet => Self {
                attention: AttentionKind::Relative,
                ..base
            },
            ModelKind::Gpt2 => Self {
                attention: AttentionKind::Causal,
                pooling: Pooling::LastToken,
                ..base
            },
        }
    }

    /// Dimension of one attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_dim / self.n_heads
    }

    /// Validate internal consistency; panics with a descriptive message when invalid.
    pub fn validate(&self) {
        assert!(
            self.hidden_dim > 0 && self.n_layers > 0 && self.n_heads > 0,
            "zero-sized model"
        );
        assert_eq!(
            self.hidden_dim % self.n_heads,
            0,
            "hidden_dim {} not divisible by n_heads {}",
            self.hidden_dim,
            self.n_heads
        );
        assert!(self.max_len >= 4, "max_len must be at least 4");
        assert!(self.n_classes >= 2, "need at least two classes");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0,1)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_is_valid() {
        let c = ModelConfig::base(6);
        c.validate();
        assert_eq!(c.head_dim() * c.n_heads, c.hidden_dim);
    }

    #[test]
    fn kind_configs_differ_architecturally() {
        let bert = ModelConfig::for_kind(ModelKind::Bert, 6);
        let distil = ModelConfig::for_kind(ModelKind::DistilBert, 6);
        let gpt2 = ModelConfig::for_kind(ModelKind::Gpt2, 6);
        let xlnet = ModelConfig::for_kind(ModelKind::Xlnet, 6);
        let t5 = ModelConfig::for_kind(ModelKind::FlanT5, 6);
        assert!(distil.n_layers < bert.n_layers);
        assert_eq!(gpt2.attention, AttentionKind::Causal);
        assert_eq!(gpt2.pooling, Pooling::LastToken);
        assert_eq!(xlnet.attention, AttentionKind::Relative);
        assert_eq!(t5.pooling, Pooling::Mean);
        for kind in ModelKind::ALL {
            ModelConfig::for_kind(kind, 6).validate();
        }
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(ModelKind::MentalBert.name(), "MentalBERT");
        assert_eq!(ModelKind::Gpt2.name(), "GPT-2.0");
        assert_eq!(ModelKind::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn invalid_head_count_panics() {
        let mut c = ModelConfig::base(6);
        c.n_heads = 5;
        c.validate();
    }
}
