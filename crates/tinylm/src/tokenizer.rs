use std::collections::HashMap;

/// A token id.
pub type Token = u32;

/// Beginning-of-sequence token (also used as left padding for the context
/// window).
pub const BOS: Token = 0;

/// End-of-sequence token; generation stops here.
pub const EOS: Token = 1;

/// A word-level tokenizer with a closed vocabulary.
///
/// Words are lowercased; punctuation is split off and dropped except `.`
/// `,` and `;`, which are tokens of their own (`;` separates steps in a
/// response). Unknown words at encode time are mapped to the dedicated
/// `<unk>` token.
///
/// # Example
///
/// ```
/// use tinylm::Tokenizer;
///
/// let tok = Tokenizer::from_corpus(["turn right at the traffic light ."]);
/// let ids = tok.encode("Turn RIGHT now!");
/// assert_eq!(tok.decode(&ids), "turn right <unk>");
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer {
    words: Vec<String>,
    index: HashMap<String, Token>,
}

/// The unknown-word token's surface form.
pub const UNK_WORD: &str = "<unk>";

fn split_words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in text.split_whitespace() {
        let lowered = raw.to_lowercase();
        let mut word = String::new();
        for c in lowered.chars() {
            if c.is_ascii_alphanumeric() || c == '-' || c == '\'' {
                word.push(c);
            } else {
                if !word.is_empty() {
                    out.push(std::mem::take(&mut word));
                }
                if matches!(c, '.' | ',' | ';') {
                    out.push(c.to_string());
                }
            }
        }
        if !word.is_empty() {
            out.push(word);
        }
    }
    out
}

impl Tokenizer {
    /// Builds a vocabulary from a corpus of strings. Token ids 0..3 are
    /// `BOS`, `EOS` and `<unk>`; the remaining ids are corpus words in
    /// first-seen order.
    pub fn from_corpus<S: AsRef<str>>(corpus: impl IntoIterator<Item = S>) -> Self {
        let mut words = vec!["<bos>".to_owned(), "<eos>".to_owned(), UNK_WORD.to_owned()];
        let mut index: HashMap<String, Token> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as Token))
            .collect();
        for text in corpus {
            for word in split_words(text.as_ref()) {
                if !index.contains_key(&word) {
                    index.insert(word.clone(), words.len() as Token);
                    words.push(word);
                }
            }
        }
        Tokenizer { words, index }
    }

    /// The `<unk>` token id.
    pub fn unk(&self) -> Token {
        2
    }

    /// Vocabulary size (including specials).
    pub fn vocab_size(&self) -> usize {
        self.words.len()
    }

    /// Encodes text to token ids (no `BOS`/`EOS` added).
    pub fn encode(&self, text: &str) -> Vec<Token> {
        split_words(text)
            .into_iter()
            .map(|w| self.index.get(&w).copied().unwrap_or(self.unk()))
            .collect()
    }

    /// Decodes token ids back to a space-joined string. `BOS`/`EOS` are
    /// skipped.
    pub fn decode(&self, tokens: &[Token]) -> String {
        tokens
            .iter()
            .filter(|&&t| t != BOS && t != EOS)
            .map(|&t| {
                self.words
                    .get(t as usize)
                    .map(String::as_str)
                    .unwrap_or(UNK_WORD)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The surface form of one token.
    pub fn word(&self, token: Token) -> &str {
        self.words
            .get(token as usize)
            .map(String::as_str)
            .unwrap_or(UNK_WORD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn specials_reserved() {
        let tok = Tokenizer::from_corpus(["a b"]);
        assert_eq!(tok.word(BOS), "<bos>");
        assert_eq!(tok.word(EOS), "<eos>");
        assert_eq!(tok.word(tok.unk()), UNK_WORD);
        assert_eq!(tok.vocab_size(), 5);
    }

    #[test]
    fn encode_decode_known_words() {
        let tok = Tokenizer::from_corpus(["turn right at the traffic light ; stop ."]);
        let ids = tok.encode("turn right ; stop");
        assert_eq!(tok.decode(&ids), "turn right ; stop");
    }

    #[test]
    fn unknown_words_map_to_unk() {
        let tok = Tokenizer::from_corpus(["go"]);
        let ids = tok.encode("go zebra");
        assert_eq!(ids[1], tok.unk());
        assert_eq!(tok.decode(&ids), "go <unk>");
    }

    #[test]
    fn punctuation_tokens() {
        let tok = Tokenizer::from_corpus(["a . b , c ; d"]);
        let ids = tok.encode("a. b,c;d");
        let decoded = tok.decode(&ids);
        assert_eq!(decoded, "a . b , c ; d");
    }

    #[test]
    fn case_folding() {
        let tok = Tokenizer::from_corpus(["stop"]);
        assert_eq!(tok.encode("STOP"), tok.encode("stop"));
    }

    proptest! {
        /// decode ∘ encode is the identity on texts made of corpus words.
        #[test]
        fn roundtrip_on_known_words(indices in proptest::collection::vec(0usize..6, 1..12)) {
            let words = ["turn", "right", "stop", "light", ";", "."];
            let tok = Tokenizer::from_corpus([words.join(" ")]);
            let text = indices.iter().map(|&i| words[i]).collect::<Vec<_>>().join(" ");
            let ids = tok.encode(&text);
            prop_assert_eq!(tok.decode(&ids), text);
        }
    }
}
