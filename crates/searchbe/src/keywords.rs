//! Keyword classes and synthetic corpora.
//!
//! Sec. 3 of the paper: "we use different sets of search keywords with
//! varying popularity, granularity, and complexity", e.g. the Bing
//! popular-keyword list, concatenated refinements ("Computer Science
//! Department at University of Minnesota"), and uncorrelated mixtures
//! ("computer and potato"). The caching probes use a 40,000-keyword
//! corpus mixing suggestion-box keywords with unsuggested ones.

use simcore::dist::Zipf;
use simcore::rng::Rng;

/// The four keyword classes of Fig. 3 (key1–key4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeywordClass {
    /// A currently popular keyword (Bing front-page list): likely warm in
    /// BE caches, cheap to process.
    Popular,
    /// A refined, concatenated query ("Computer Science Department at
    /// University of Minnesota"): moderate cost, narrower index walk.
    Refined,
    /// A long, complex query: expensive to process.
    Complex,
    /// A mixture of uncorrelated keywords ("computer and potato"):
    /// expensive — intersecting unrelated posting lists.
    UncorrelatedMix,
}

impl KeywordClass {
    /// All classes in Fig. 3 order (key1..key4).
    pub const ALL: [KeywordClass; 4] = [
        KeywordClass::Popular,
        KeywordClass::Refined,
        KeywordClass::Complex,
        KeywordClass::UncorrelatedMix,
    ];

    /// Stable index (0..4).
    pub fn index(self) -> usize {
        match self {
            KeywordClass::Popular => 0,
            KeywordClass::Refined => 1,
            KeywordClass::Complex => 2,
            KeywordClass::UncorrelatedMix => 3,
        }
    }

    /// Display label used in figure output ("key1".."key4").
    pub fn label(self) -> &'static str {
        match self {
            KeywordClass::Popular => "key1-popular",
            KeywordClass::Refined => "key2-refined",
            KeywordClass::Complex => "key3-complex",
            KeywordClass::UncorrelatedMix => "key4-mix",
        }
    }

    /// Typical number of words in a query of this class.
    pub fn word_count(self) -> usize {
        match self {
            KeywordClass::Popular => 2,
            KeywordClass::Refined => 6,
            KeywordClass::Complex => 10,
            KeywordClass::UncorrelatedMix => 3,
        }
    }
}

/// One search keyword/query: its identity and the attributes the
/// simulator reads. The corpus keeps no text: a query's bytes matter
/// only through its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keyword {
    /// Stable id (also used to derive the dynamic content identity).
    pub id: u64,
    /// Class.
    pub class: KeywordClass,
    /// Popularity rank (0 = most popular) within the corpus, used by the
    /// BE cache-warmth model.
    pub rank: usize,
    /// Whether the keyword appears in the services' suggestion box
    /// (the caching probes draw from both populations).
    pub suggested: bool,
    /// Query length in characters (the text is ASCII, so also bytes).
    pub chars: usize,
}

const SYLLABLES: &[&str] = &[
    "com", "pu", "ter", "sci", "ence", "cloud", "mo", "bile", "data", "cen", "net", "work", "po",
    "ta", "to", "uni", "ver", "si", "ty", "min", "ne", "so", "search", "que", "ry", "lab", "sys",
    "tem", "web", "ser", "vice",
];

/// Length of one synthetic word of 2–4 syllables.
fn synth_word_len(rng: &mut Rng) -> u16 {
    let n = 2 + rng.next_below(3);
    (0..n).map(|_| rng.choose(SYLLABLES).len() as u16).sum()
}

/// Length of a `words`-word query: its words and one space between
/// each pair. At most 10 words of 24 characters, so it fits a `u16`.
fn synth_query_len(rng: &mut Rng, words: usize) -> u16 {
    let spaces = words as u16 - 1;
    (0..words).map(|_| synth_word_len(rng)).sum::<u16>() + spaces
}

/// What the corpus keeps per keyword: 4 bytes.
#[derive(Clone, Copy, Debug)]
struct Attrs {
    chars: u16,
    class: KeywordClass,
    suggested: bool,
}

/// A deterministic synthetic keyword corpus: per keyword its length,
/// class and suggested flag, in rank order, beside the Zipf table.
#[derive(Clone, Debug)]
pub struct KeywordCorpus {
    attrs: Vec<Attrs>,
    zipf: Zipf,
}

impl KeywordCorpus {
    /// Generates `n` keywords (the caching probes use n = 40,000). The
    /// class mix is dominated by `Popular`/`Refined` with a tail of
    /// complex and mixed queries; `suggested_frac` of keywords are marked
    /// as appearing in the suggestion box.
    pub fn generate(seed: u64, n: usize, suggested_frac: f64) -> KeywordCorpus {
        assert!(n > 0);
        let mut rng = Rng::from_seed_and_name(seed, "searchbe/corpus");
        let attrs = (0..n)
            .map(|_| {
                let u = rng.next_f64();
                let class = if u < 0.40 {
                    KeywordClass::Popular
                } else if u < 0.75 {
                    KeywordClass::Refined
                } else if u < 0.90 {
                    KeywordClass::Complex
                } else {
                    KeywordClass::UncorrelatedMix
                };
                let chars = synth_query_len(&mut rng, class.word_count());
                Attrs {
                    chars,
                    class,
                    suggested: rng.chance(suggested_frac),
                }
            })
            .collect();
        KeywordCorpus {
            attrs,
            // Rank = generation order; sampling is Zipf over it.
            zipf: Zipf::new(n, 0.9),
        }
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when empty (never: generation requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Every keyword, in id order.
    pub fn all(&self) -> impl ExactSizeIterator<Item = Keyword> + '_ {
        (0..self.len()).map(|i| self.get(i as u64))
    }

    /// A specific keyword by id.
    pub fn get(&self, id: u64) -> Keyword {
        let a = self.attrs[id as usize];
        Keyword {
            id,
            class: a.class,
            rank: id as usize,
            suggested: a.suggested,
            chars: a.chars as usize,
        }
    }

    /// Draws a keyword by Zipf popularity (rank 0 most likely) — the
    /// Dataset A workload.
    pub fn sample(&self, rng: &mut Rng) -> Keyword {
        self.get(self.zipf.sample_rank(rng) as u64)
    }

    /// One representative keyword per class (the Fig. 3 "key1..key4"
    /// picks), chosen deterministically as the lowest-rank member of each
    /// class.
    pub fn fig3_picks(&self) -> [Keyword; 4] {
        KeywordClass::ALL.map(|class| {
            let id = self
                .attrs
                .iter()
                .position(|a| a.class == class)
                .expect("corpus missing a keyword class");
            self.get(id as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let a = KeywordCorpus::generate(1, 1000, 0.5);
        let b = KeywordCorpus::generate(1, 1000, 0.5);
        assert_eq!(a.len(), 1000);
        assert!(a.all().eq(b.all()));
    }

    #[test]
    fn class_mix_is_reasonable() {
        let c = KeywordCorpus::generate(2, 10_000, 0.5);
        let mut counts = [0usize; 4];
        for kw in c.all() {
            counts[kw.class.index()] += 1;
        }
        assert!(counts[0] > counts[2], "popular should outnumber complex");
        for (i, &n) in counts.iter().enumerate() {
            assert!(n > 100, "class {i} underrepresented: {n}");
        }
    }

    #[test]
    fn word_counts_by_class() {
        // A word is 2–4 syllables of 2–6 characters, and a `w`-word
        // query has `w - 1` spaces.
        let syllable = SYLLABLES.iter().map(|s| s.len());
        assert_eq!((syllable.clone().min(), syllable.max()), (Some(2), Some(6)));
        let c = KeywordCorpus::generate(3, 2000, 0.5);
        for kw in c.all() {
            let w = kw.class.word_count();
            let (shortest, longest) = (w * 2 * 2 + w - 1, w * 4 * 6 + w - 1);
            assert!((shortest..=longest).contains(&kw.chars), "{kw:?}");
        }
        // Complex queries are longer than popular ones.
        let avg = |class: KeywordClass| {
            let v: Vec<usize> = c
                .all()
                .filter(|k| k.class == class)
                .map(|k| k.chars)
                .collect();
            v.iter().sum::<usize>() as f64 / v.len() as f64
        };
        assert!(avg(KeywordClass::Complex) > 2.0 * avg(KeywordClass::Popular));
    }

    #[test]
    fn zipf_sampling_prefers_low_ranks() {
        let c = KeywordCorpus::generate(4, 1000, 0.5);
        let mut rng = Rng::from_seed(9);
        let mut low = 0;
        for _ in 0..10_000 {
            if c.sample(&mut rng).rank < 100 {
                low += 1;
            }
        }
        // Top 10% of ranks should receive far more than 10% of draws.
        assert!(low > 3_000, "low-rank draws: {low}");
    }

    #[test]
    fn fig3_picks_cover_all_classes() {
        let c = KeywordCorpus::generate(5, 500, 0.5);
        let picks = c.fig3_picks();
        let classes: Vec<KeywordClass> = picks.iter().map(|k| k.class).collect();
        assert_eq!(classes, KeywordClass::ALL.to_vec());
    }

    #[test]
    fn suggested_fraction_respected() {
        let c = KeywordCorpus::generate(6, 20_000, 0.3);
        let suggested = c.all().filter(|k| k.suggested).count();
        let frac = suggested as f64 / c.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "suggested frac {frac}");
    }

    #[test]
    fn corpus_attributes_are_pinned() {
        // FNV-1a-64 over every keyword's length (`u16`, little-endian),
        // class index and suggested flag: generation must keep making
        // the same draws in the same order. The lengths add up to the
        // 1,832,350 bytes of text the same draws spell out.
        let c = KeywordCorpus::generate(42, 40_000, 0.5);
        let (mut h, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        for kw in c.all() {
            let chars = u16::try_from(kw.chars).expect("lengths fit u16");
            let [lo, hi] = chars.to_le_bytes();
            for b in [lo, hi, kw.class.index() as u8, u8::from(kw.suggested)] {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            bytes += kw.chars;
        }
        assert_eq!(bytes, 1_832_350);
        assert_eq!(h, 0xd1ed_6553_4754_430f);
    }

    #[test]
    fn corpus_buffers_hold_four_bytes_per_keyword() {
        // 4 B of attributes and an 8 B Zipf entry per keyword: 480,000 B
        // at 40,000 keywords, where keeping the text too took 2,392,350.
        assert_eq!(std::mem::size_of::<Attrs>(), 4);
        let c = KeywordCorpus::generate(42, 40_000, 0.5);
        let bytes = c.attrs.capacity() * std::mem::size_of::<Attrs>()
            + c.zipf.len() * std::mem::size_of::<f64>();
        assert!(bytes <= 500_000, "corpus buffers hold {bytes} B");
    }

    #[test]
    fn forty_thousand_keyword_corpus_generates_quickly() {
        let c = KeywordCorpus::generate(7, 40_000, 0.5);
        assert_eq!(c.len(), 40_000);
        assert_eq!(c.get(39_999).id, 39_999);
    }
}
