//! Word and sentence tokenisation.
//!
//! The tokeniser is intentionally simple and deterministic: it segments on Unicode
//! alphanumeric boundaries, keeps intra-word apostrophes and hyphens (so `can't` and
//! `self-harm` stay single tokens — both occur frequently in the Beyond Blue style
//! posts the paper works with), and reports byte offsets so explanation spans can be
//! mapped back onto the original post.

/// The coarse class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic / alphanumeric word (possibly with internal `'` or `-`).
    Word,
    /// A run of digits (ages, counts, "2 hours of sleep").
    Number,
    /// A single punctuation character.
    Punctuation,
}

/// A token together with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text, exactly as it appears in the source.
    pub text: String,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// Coarse token class.
    pub kind: TokenKind,
}

impl Token {
    /// Lower-cased copy of the token text.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphabetic()
}

fn is_word_continuation(c: char) -> bool {
    c.is_alphanumeric() || c == '\'' || c == '’' || c == '-'
}

/// Tokenise `text` into `(start, end, kind)` byte spans **without allocating
/// per token**. This is the single tokeniser implementation:
/// [`tokenize_with_spans`] materialises owned [`Token`]s from these spans, and
/// the vectoriser's interned fit path consumes the spans directly (borrowing
/// `&text[start..end]`) so fitting a corpus no longer allocates one `String`
/// per token occurrence.
pub fn token_spans(text: &str) -> Vec<(usize, usize, TokenKind)> {
    let mut spans = Vec::new();
    let mut chars = text.char_indices().peekable();

    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if is_word_char(c) {
            let mut end = start + c.len_utf8();
            chars.next();
            while let Some(&(i, nc)) = chars.peek() {
                if is_word_continuation(nc) {
                    end = i + nc.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            // Trim trailing apostrophes / hyphens that are really punctuation.
            let mut slice = &text[start..end];
            while slice.ends_with('\'') || slice.ends_with('-') || slice.ends_with('’') {
                let cut = slice
                    .char_indices()
                    .next_back()
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                slice = &slice[..cut];
            }
            let end = start + slice.len();
            if !slice.is_empty() {
                spans.push((start, end, TokenKind::Word));
            }
            continue;
        }
        if c.is_ascii_digit() {
            let mut end = start + c.len_utf8();
            chars.next();
            while let Some(&(i, nc)) = chars.peek() {
                if nc.is_ascii_digit()
                    || nc == '.' && text[i + 1..].starts_with(|d: char| d.is_ascii_digit())
                {
                    end = i + nc.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            spans.push((start, end, TokenKind::Number));
            continue;
        }
        // punctuation / symbol
        let end = start + c.len_utf8();
        chars.next();
        spans.push((start, end, TokenKind::Punctuation));
    }
    spans
}

/// Tokenise `text` into [`Token`]s with byte offsets.
///
/// Words keep internal apostrophes and hyphens; trailing apostrophes/hyphens are
/// trimmed. Digit runs become [`TokenKind::Number`]; any other non-whitespace
/// character becomes a one-character [`TokenKind::Punctuation`] token.
pub fn tokenize_with_spans(text: &str) -> Vec<Token> {
    token_spans(text)
        .into_iter()
        .map(|(start, end, kind)| Token {
            text: text[start..end].to_string(),
            start,
            end,
            kind,
        })
        .collect()
}

/// Tokenise `text`, returning tokens without caring about spans.
pub fn tokenize(text: &str) -> Vec<Token> {
    tokenize_with_spans(text)
}

/// Lower-cased word-only tokens (no numbers, no punctuation).
pub fn words(text: &str) -> Vec<String> {
    tokenize_with_spans(text)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| t.lower())
        .collect()
}

/// Split `text` into sentences.
///
/// Sentence boundaries are `.`, `!`, `?` and newlines, with the common social-media
/// caveat that ellipses (`...`) and repeated terminators (`!!!`) close a single
/// sentence. Empty sentences are dropped. Used to reproduce the "total sentence
/// count" and "max sentences per post" statistics of Table II.
pub fn sentences(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'.' || b == b'!' || b == b'?' || b == b'\n' {
            // swallow the run of terminators
            let mut j = i + 1;
            while j < bytes.len()
                && (bytes[j] == b'.' || bytes[j] == b'!' || bytes[j] == b'?' || bytes[j] == b'\n')
            {
                j += 1;
            }
            let sent = text[start..i].trim();
            if !sent.is_empty() {
                out.push(text[start..j].trim());
            }
            start = j;
            i = j;
        } else {
            i += 1;
        }
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_sentence() {
        let toks = tokenize("I feel exhausted all the time.");
        let words: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            words,
            vec!["I", "feel", "exhausted", "all", "the", "time", "."]
        );
    }

    #[test]
    fn keeps_contractions_and_hyphens() {
        let toks = words("I can't handle my self-harm urges");
        assert!(toks.contains(&"can't".to_string()));
        assert!(toks.contains(&"self-harm".to_string()));
    }

    #[test]
    fn trims_trailing_apostrophe() {
        let toks = tokenize("friends' support");
        assert_eq!(toks[0].text, "friends");
    }

    #[test]
    fn spans_round_trip_to_source() {
        let text = "My 9-5 job drains me, and I don’t see the point.";
        for t in tokenize_with_spans(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn numbers_are_separate_tokens() {
        let toks = tokenize("2 hours of sleep");
        assert_eq!(toks[0].kind, TokenKind::Number);
        assert_eq!(toks[0].text, "2");
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let toks = tokenize("Je me sens épuisé — toujours fatigué…");
        assert!(toks.iter().any(|t| t.text == "épuisé"));
    }

    #[test]
    fn sentence_splitting_counts() {
        let s = sentences("I hate my job. I feel alone... What now?");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sentence_splitting_handles_no_terminator() {
        let s = sentences("no terminator here");
        assert_eq!(s, vec!["no terminator here"]);
    }

    #[test]
    fn empty_text_yields_nothing() {
        assert!(tokenize("").is_empty());
        assert!(sentences("").is_empty());
        assert!(sentences("...").is_empty());
    }
}
