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
/// simulator reads. The text itself stays in the corpus
/// ([`KeywordCorpus::text`]).
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

/// Appends one synthetic word of 2–4 syllables to `out`.
fn synth_word(rng: &mut Rng, out: &mut String) {
    let n = 2 + rng.next_below(3) as usize;
    for _ in 0..n {
        out.push_str(rng.choose(SYLLABLES) as &str);
    }
}

/// Appends a `words`-word query to `out`.
fn synth_query(rng: &mut Rng, words: usize, out: &mut String) {
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        synth_word(rng, out);
    }
}

/// A deterministic synthetic keyword corpus. Every keyword's text sits
/// back to back in one buffer; per keyword the corpus keeps only where
/// its text ends, its class and its suggested flag.
#[derive(Clone, Debug)]
pub struct KeywordCorpus {
    text: String,
    ends: Vec<u32>,
    classes: Vec<KeywordClass>,
    suggested: Vec<bool>,
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
        // Keywords average ~46 bytes: one reservation covers the text,
        // and the surplus is returned once it is written.
        let mut text = String::with_capacity(n * 64);
        let mut ends = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut suggested = Vec::with_capacity(n);
        for _ in 0..n {
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
            synth_query(&mut rng, class.word_count(), &mut text);
            ends.push(u32::try_from(text.len()).expect("corpus text past 4 GiB"));
            classes.push(class);
            suggested.push(rng.chance(suggested_frac));
        }
        text.shrink_to_fit();
        KeywordCorpus {
            text,
            ends,
            classes,
            suggested,
            // Rank = generation order; sampling is Zipf over it.
            zipf: Zipf::new(n, 0.9),
        }
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when empty (never: generation requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every keyword, in id order.
    pub fn all(&self) -> impl ExactSizeIterator<Item = Keyword> + '_ {
        (0..self.len()).map(|i| self.get(i as u64))
    }

    /// A specific keyword by id.
    pub fn get(&self, id: u64) -> Keyword {
        let i = id as usize;
        Keyword {
            id,
            class: self.classes[i],
            rank: i,
            suggested: self.suggested[i],
            chars: self.span(i).len(),
        }
    }

    /// The query text of keyword `id`.
    pub fn text(&self, id: u64) -> &str {
        &self.text[self.span(id as usize)]
    }

    /// Byte range of keyword `i`'s text in the buffer.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        start..self.ends[i] as usize
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
                .classes
                .iter()
                .position(|&c| c == class)
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
        for (x, y) in a.all().zip(b.all()) {
            assert_eq!(a.text(x.id), b.text(y.id));
            assert_eq!(x, y);
        }
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
        let c = KeywordCorpus::generate(3, 2000, 0.5);
        for kw in c.all() {
            let text = c.text(kw.id);
            assert_eq!(text.len(), kw.chars);
            let words = text.split(' ').count();
            assert_eq!(words, kw.class.word_count(), "{:?}", kw.class);
        }
        // Complex queries are textually longer than popular ones.
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
    fn corpus_text_is_pinned() {
        // FNV-1a-64 over every keyword's text followed by `|`: the
        // corpus must stay the same bytes however it is built.
        let c = KeywordCorpus::generate(42, 40_000, 0.5);
        let (mut h, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        for kw in c.all() {
            let text = c.text(kw.id);
            for &b in text.as_bytes().iter().chain(b"|") {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            bytes += text.len();
        }
        assert_eq!(bytes, 1_832_350);
        assert_eq!(h, 0x0b1d_4e3e_97ed_2085);
    }

    #[test]
    fn corpus_buffers_hold_little_beyond_the_text() {
        // One text buffer plus per-keyword offsets, classes and flags:
        // ~2.39 MB at 40,000 keywords, where a `String` per keyword took
        // ~4.07 MB in 40,001 allocations.
        let c = KeywordCorpus::generate(42, 40_000, 0.5);
        let bytes = c.text.capacity()
            + c.ends.capacity() * std::mem::size_of::<u32>()
            + c.classes.capacity() * std::mem::size_of::<KeywordClass>()
            + c.suggested.capacity() * std::mem::size_of::<bool>()
            + c.zipf.len() * std::mem::size_of::<f64>();
        assert!(bytes <= 2_500_000, "corpus buffers hold {bytes} B");
    }

    #[test]
    fn forty_thousand_keyword_corpus_generates_quickly() {
        let c = KeywordCorpus::generate(7, 40_000, 0.5);
        assert_eq!(c.len(), 40_000);
        assert_eq!(c.get(39_999).id, 39_999);
    }
}
