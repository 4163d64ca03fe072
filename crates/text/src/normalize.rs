//! Text normalisation.
//!
//! The paper's preprocessing removes "irrelevant, empty, and duplicate posts" and the
//! TF-IDF baselines operate on lower-cased, punctuation-stripped text. This module
//! centralises those rules so the corpus generator, the vectoriser and the LIME
//! perturbation sampler all agree on what the normalised form of a post is.

/// Options controlling [`normalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizeOptions {
    /// Lower-case the text.
    pub lowercase: bool,
    /// Replace punctuation with spaces.
    pub strip_punctuation: bool,
    /// Collapse consecutive whitespace into a single space and trim.
    pub collapse_whitespace: bool,
    /// Replace digit runs with the placeholder `<num>`.
    pub mask_numbers: bool,
    /// Replace URLs (`http...`, `www...`) with the placeholder `<url>`.
    pub mask_urls: bool,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        Self {
            lowercase: true,
            strip_punctuation: true,
            collapse_whitespace: true,
            mask_numbers: false,
            mask_urls: true,
        }
    }
}

impl NormalizeOptions {
    /// Options that only clean whitespace — used when the original surface form must
    /// be preserved (e.g. for explanation spans).
    pub fn whitespace_only() -> Self {
        Self {
            lowercase: false,
            strip_punctuation: false,
            collapse_whitespace: true,
            mask_numbers: false,
            mask_urls: false,
        }
    }
}

fn is_url_start(word: &str) -> bool {
    let w = word.to_ascii_lowercase();
    w.starts_with("http://") || w.starts_with("https://") || w.starts_with("www.")
}

/// Normalise `text` according to `options`.
pub fn normalize(text: &str, options: &NormalizeOptions) -> String {
    // URL masking operates on whitespace-delimited chunks before any other step so
    // that punctuation stripping does not destroy the URL shape first.
    let mut working = String::with_capacity(text.len());
    if options.mask_urls {
        let mut first = true;
        for chunk in text.split_whitespace() {
            if !first {
                working.push(' ');
            }
            first = false;
            if is_url_start(chunk) {
                working.push_str("<url>");
            } else {
                working.push_str(chunk);
            }
        }
        if text.is_empty() {
            working.clear();
        }
    } else {
        working.push_str(text);
    }

    let mut out = String::with_capacity(working.len());
    let mut chars = working.chars().peekable();
    while let Some(c) = chars.next() {
        if options.mask_numbers && c.is_ascii_digit() {
            while let Some(&n) = chars.peek() {
                if n.is_ascii_digit() || n == '.' {
                    chars.next();
                } else {
                    break;
                }
            }
            out.push_str("<num>");
            continue;
        }
        if options.strip_punctuation
            && !c.is_alphanumeric()
            && !c.is_whitespace()
            && c != '\''
            && c != '<'
            && c != '>'
        {
            out.push(' ');
            continue;
        }
        if options.lowercase {
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }

    if options.collapse_whitespace {
        let collapsed: Vec<&str> = out.split_whitespace().collect();
        collapsed.join(" ")
    } else {
        out
    }
}

/// Normalise with the default options (lowercase, strip punctuation, collapse
/// whitespace, mask URLs).
pub fn normalize_default(text: &str) -> String {
    normalize(text, &NormalizeOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_normalization_lowercases_and_strips() {
        let n = normalize_default("I HATE my body!!  I feel   disgusting.");
        assert_eq!(n, "i hate my body i feel disgusting");
    }

    #[test]
    fn keeps_apostrophes() {
        let n = normalize_default("I can't sleep");
        assert_eq!(n, "i can't sleep");
    }

    #[test]
    fn masks_urls() {
        let n = normalize_default("see https://beyondblue.org.au for help");
        assert_eq!(n, "see <url> for help");
    }

    #[test]
    fn masks_numbers_when_requested() {
        let opts = NormalizeOptions {
            mask_numbers: true,
            ..NormalizeOptions::default()
        };
        let n = normalize("only 2.5 hours of sleep", &opts);
        assert_eq!(n, "only <num> hours of sleep");
    }

    #[test]
    fn whitespace_only_preserves_case_and_punct() {
        let n = normalize("  Hello,   WORLD! ", &NormalizeOptions::whitespace_only());
        assert_eq!(n, "Hello, WORLD!");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(normalize_default(""), "");
        assert_eq!(normalize("", &NormalizeOptions::whitespace_only()), "");
    }
}
