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

/// One search keyword/query.
#[derive(Clone, Debug)]
pub struct Keyword {
    /// Stable id (also used to derive the dynamic content identity).
    pub id: u64,
    /// The query text.
    pub text: String,
    /// Class.
    pub class: KeywordClass,
    /// Popularity rank (0 = most popular) within the corpus, used by the
    /// BE cache-warmth model.
    pub rank: usize,
    /// Whether the keyword appears in the services' suggestion box
    /// (the caching probes draw from both populations).
    pub suggested: bool,
}

impl Keyword {
    /// Query length in characters.
    pub fn chars(&self) -> usize {
        self.text.len()
    }
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

/// Builds a `words`-word query in the reused buffer `buf` and returns it
/// as an exact-size `String`: one allocation per keyword.
fn synth_query(rng: &mut Rng, words: usize, buf: &mut String) -> String {
    buf.clear();
    for i in 0..words {
        if i > 0 {
            buf.push(' ');
        }
        synth_word(rng, buf);
    }
    buf.as_str().to_owned()
}

/// A deterministic synthetic keyword corpus.
#[derive(Clone, Debug)]
pub struct KeywordCorpus {
    keywords: Vec<Keyword>,
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
        let mut keywords = Vec::with_capacity(n);
        let mut buf = String::new();
        for id in 0..n {
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
            let text = synth_query(&mut rng, class.word_count(), &mut buf);
            let suggested = rng.chance(suggested_frac);
            keywords.push(Keyword {
                id: id as u64,
                text,
                class,
                rank: id, // rank = generation order; sampling is Zipf over it
                suggested,
            });
        }
        KeywordCorpus {
            zipf: Zipf::new(n, 0.9),
            keywords,
        }
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// True when empty (never: generation requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// The full keyword list.
    pub fn all(&self) -> &[Keyword] {
        &self.keywords
    }

    /// A specific keyword by id.
    pub fn get(&self, id: u64) -> &Keyword {
        &self.keywords[id as usize]
    }

    /// Draws a keyword by Zipf popularity (rank 0 most likely) — the
    /// Dataset A workload.
    pub fn sample(&self, rng: &mut Rng) -> &Keyword {
        &self.keywords[self.zipf.sample_rank(rng)]
    }

    /// One representative keyword per class (the Fig. 3 "key1..key4"
    /// picks), chosen deterministically as the lowest-rank member of each
    /// class.
    pub fn fig3_picks(&self) -> [&Keyword; 4] {
        let mut picks: [Option<&Keyword>; 4] = [None; 4];
        for kw in &self.keywords {
            let idx = kw.class.index();
            if picks[idx].is_none() {
                picks[idx] = Some(kw);
            }
        }
        picks.map(|p| p.expect("corpus missing a keyword class"))
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
        for (x, y) in a.all().iter().zip(b.all()) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.class, y.class);
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
            let words = kw.text.split(' ').count();
            assert_eq!(words, kw.class.word_count(), "{:?}", kw.class);
        }
        // Complex queries are textually longer than popular ones.
        let avg = |class: KeywordClass| {
            let v: Vec<usize> = c
                .all()
                .iter()
                .filter(|k| k.class == class)
                .map(|k| k.chars())
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
        let suggested = c.all().iter().filter(|k| k.suggested).count();
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
            for &b in kw.text.as_bytes().iter().chain(b"|") {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            bytes += kw.text.len();
        }
        assert_eq!(bytes, 1_832_350);
        assert_eq!(h, 0x0b1d_4e3e_97ed_2085);
    }

    #[test]
    fn forty_thousand_keyword_corpus_generates_quickly() {
        let c = KeywordCorpus::generate(7, 40_000, 0.5);
        assert_eq!(c.len(), 40_000);
        assert_eq!(c.get(39_999).id, 39_999);
    }
}
