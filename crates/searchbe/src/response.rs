//! Search-result page composition.
//!
//! The paper's content analysis (Sec. 3) splits each result page into the
//! static portion ("the HTTP header, HTML header, CSS style files, and
//! the static menu bar ... placed on top of each search result page") and
//! the dynamic remainder ("the keyword-dependent dynamic menu bar, search
//! results and ads"). Footnote 2 notes that "although users are
//! distributed globally, the size of the returned search results are
//! quite similar" — sizes depend on the query, not on the client.
//!
//! The static portion's size is chosen so that, at the default initial
//! window of 4 MSS-sized segments, its delivery spans the initial window
//! plus one additional ACK-clocked round — which is what couples
//! `Tstatic` to the client↔FE RTT and, through it, produces the paper's
//! `Tdelta`-goes-to-zero threshold behaviour.
//!
//! The simulator does not shuttle literal bytes: a message is its size
//! and content identity. [`RequestSpec`] is the search GET going up;
//! [`ResponsePlan`] is the two-part response coming down (equal ids ⇔
//! byte-identical content, which is how the capture pipeline detects the
//! cross-query-static part).

use crate::keywords::Keyword;
use nettopo::metro::Region;
use simcore::dist::Dist;
use simcore::rng::Rng;

/// Content ids below this value are reserved for static content (one per
/// service); dynamic content ids are allocated above it.
pub const CONTENT_ID_STATIC_BASE: u64 = 1_000;

/// Wire-size model of a search GET request.
///
/// `GET /search?q=<query> HTTP/1.1` plus Host, User-Agent, Accept*,
/// Cookie headers — around 300 bytes of boilerplate plus the
/// percent-encoded query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// Total request size in bytes.
    pub bytes: u64,
    /// Content identity of the request (per query, so FE→BE relays are
    /// attributable in traces).
    pub content: u64,
}

impl RequestSpec {
    /// Builds the spec for a query string of `query_chars` characters
    /// (percent-encoding inflates by ~1.2×) with content id `content`.
    pub fn for_query_len(query_chars: usize, content: u64) -> RequestSpec {
        let encoded = (query_chars as f64 * 1.2).ceil() as u64;
        RequestSpec {
            bytes: 310 + encoded,
            content,
        }
    }
}

/// The two-part response layout.
///
/// `static_content` is the *same id* for every response from a given
/// service — the HTTP header, HTML head, CSS and static menu bar do not
/// depend on the query. `dynamic_content` is unique per query (search
/// engines personalise; the paper's Sec. 3 experiments confirm FEs do not
/// cache results).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponsePlan {
    /// Bytes of the static portion.
    pub static_bytes: u64,
    /// Content identity of the static portion (shared across queries).
    pub static_content: u64,
    /// Bytes of the dynamic portion.
    pub dynamic_bytes: u64,
    /// Content identity of the dynamic portion (per query).
    pub dynamic_content: u64,
}

impl ResponsePlan {
    /// Creates a plan; static content ids must be below
    /// [`CONTENT_ID_STATIC_BASE`], dynamic ids at or above it, and
    /// neither portion may be empty (a zero-byte portion would count as
    /// arrived before anything was sent; an absent portion is recorded
    /// as a 1-byte placeholder).
    pub fn new(
        static_bytes: u64,
        static_content: u64,
        dynamic_bytes: u64,
        dynamic_content: u64,
    ) -> ResponsePlan {
        assert!(
            static_content < CONTENT_ID_STATIC_BASE,
            "static content id must be < {CONTENT_ID_STATIC_BASE}"
        );
        assert!(
            dynamic_content >= CONTENT_ID_STATIC_BASE,
            "dynamic content id must be >= {CONTENT_ID_STATIC_BASE}"
        );
        assert!(static_bytes > 0 && dynamic_bytes > 0);
        ResponsePlan {
            static_bytes,
            static_content,
            dynamic_bytes,
            dynamic_content,
        }
    }

    /// Total response size.
    pub fn total_bytes(&self) -> u64 {
        self.static_bytes + self.dynamic_bytes
    }
}

/// Regional size multiplier for the dynamic portion.
///
/// Review #2 of the paper: "queries and answers in both Google and Bing
/// highly depend on the user region". The services localise result
/// pages (ads inventory, local results), which perturbs the dynamic
/// size slightly per region — while the paper's footnote 2 observes the
/// sizes stay "quite similar" globally. A few percent captures both.
pub fn regional_size_factor(region: Option<Region>) -> f64 {
    match region {
        Some(Region::NorthAmerica) | None => 1.0,
        Some(Region::Europe) => 0.97,
        Some(Region::Asia) => 1.04,
        Some(Region::SouthAmerica) => 0.94,
        Some(Region::Oceania) => 0.96,
    }
}

/// Composes response plans for one service.
#[derive(Clone, Debug)]
pub struct PageComposer {
    /// Size of the static portion in bytes.
    pub static_bytes: u64,
    /// Content identity of the static portion (one per service).
    pub static_content: u64,
    /// Dynamic-portion size distributions per keyword class.
    dynamic_bytes: [Dist; 4],
    next_dynamic_content: u64,
    composed_count: u64,
}

impl PageComposer {
    /// Google-like page: ~9.5 KB static head, 20–40 KB of results.
    pub fn google_like() -> PageComposer {
        PageComposer::new(9_500, 1)
    }

    /// Bing-like page: ~9 KB static head, slightly larger result bodies.
    pub fn bing_like() -> PageComposer {
        PageComposer::new(9_000, 2)
    }

    /// Builds a composer with explicit static size/identity.
    pub fn new(static_bytes: u64, static_content: u64) -> PageComposer {
        let size = |mean: f64| Dist::TruncatedBelow {
            lo: 4_000.0,
            inner: Box::new(Dist::Normal {
                mean,
                std: mean * 0.12,
            }),
        };
        PageComposer {
            static_bytes,
            static_content,
            dynamic_bytes: [
                size(24_000.0), // Popular: lean, well-curated page
                size(28_000.0), // Refined
                size(34_000.0), // Complex: more snippets
                size(22_000.0), // UncorrelatedMix: few good hits
            ],
            next_dynamic_content: CONTENT_ID_STATIC_BASE,
            composed_count: 0,
        }
    }

    /// Composes the response plan for one query. Each call allocates a
    /// fresh dynamic content identity — search results are personalised,
    /// so two responses to the *same* keyword still differ byte-wise
    /// (the paper's explanation for why FEs do not cache results).
    /// `region` applies the [`regional_size_factor`] localisation.
    pub fn compose(&mut self, kw: &Keyword, region: Option<Region>, rng: &mut Rng) -> ResponsePlan {
        let dyn_bytes = (self.dynamic_bytes[kw.class.index()].sample(rng)
            * regional_size_factor(region))
        .round() as u64;
        let content = self.next_dynamic_content;
        self.next_dynamic_content += 1;
        self.composed_count += 1;
        ResponsePlan::new(self.static_bytes, self.static_content, dyn_bytes, content)
    }

    /// Shifts the dynamic-content id space by `offset` — every data
    /// center must allocate from a disjoint range, otherwise the
    /// cross-session content classifier would see two *different*
    /// queries sharing "identical bytes" and misfile them as static.
    pub fn offset_ids(&mut self, offset: u64) {
        self.next_dynamic_content = CONTENT_ID_STATIC_BASE + offset;
    }

    /// Number of dynamic parts composed so far.
    pub fn composed(&self) -> u64 {
        self.composed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::KeywordCorpus;

    #[test]
    fn static_sizes_span_iw_plus_one_round() {
        // With MSS 1460 and IW 4 (5,840 bytes), the static portion must
        // exceed one initial window but fit within the doubled window —
        // the mechanism behind the Fig. 5 threshold.
        for c in [PageComposer::google_like(), PageComposer::bing_like()] {
            assert!(c.static_bytes > 4 * 1460, "{}", c.static_bytes);
            assert!(c.static_bytes <= 12 * 1460, "{}", c.static_bytes);
        }
    }

    #[test]
    fn distinct_static_identities_per_service() {
        assert_ne!(
            PageComposer::google_like().static_content,
            PageComposer::bing_like().static_content
        );
    }

    #[test]
    fn compose_allocates_fresh_dynamic_identity_every_time() {
        let corpus = KeywordCorpus::generate(1, 10, 0.5);
        let mut c = PageComposer::google_like();
        let mut rng = Rng::from_seed(2);
        let kw = corpus.get(0);
        let a = c.compose(&kw, None, &mut rng);
        let b = c.compose(&kw, None, &mut rng); // same keyword!
        assert_eq!(a.static_content, b.static_content);
        assert_ne!(a.dynamic_content, b.dynamic_content);
        assert_eq!(c.composed(), 2);
    }

    #[test]
    fn dynamic_sizes_depend_on_class_not_client() {
        let corpus = KeywordCorpus::generate(3, 4000, 0.5);
        let mut c = PageComposer::bing_like();
        let mut rng = Rng::from_seed(4);
        let mut by_class: [Vec<f64>; 4] = Default::default();
        for kw in corpus.all() {
            let plan = c.compose(&kw, None, &mut rng);
            by_class[kw.class.index()].push(plan.dynamic_bytes as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&by_class[2]) > mean(&by_class[0]), "complex > popular");
        assert!(mean(&by_class[2]) > mean(&by_class[3]), "complex > mix");
        // All sizes respect the floor.
        for v in &by_class {
            assert!(v.iter().all(|&b| b >= 4_000.0));
        }
    }

    #[test]
    fn regional_personalisation_shifts_sizes_slightly() {
        let corpus = KeywordCorpus::generate(5, 100, 0.5);
        let kw = corpus.get(0);
        // Same RNG state for each region → the only difference is the
        // regional factor.
        let size_for = |region: Option<Region>| {
            let mut c = PageComposer::google_like();
            let mut rng = Rng::from_seed(9);
            c.compose(&kw, region, &mut rng).dynamic_bytes as f64
        };
        let na = size_for(Some(Region::NorthAmerica));
        let asia = size_for(Some(Region::Asia));
        let sa = size_for(Some(Region::SouthAmerica));
        assert!(asia > na && na > sa);
        // ... but stays "quite similar" (footnote 2): within ±10%.
        assert!((asia / na - 1.0).abs() < 0.10);
        assert!((sa / na - 1.0).abs() < 0.10);
        assert_eq!(size_for(None), na);
    }

    #[test]
    fn request_size_model_rounds_up_encoding() {
        // ceil(chars × 1.2): check the boundary where rounding matters.
        assert_eq!(RequestSpec::for_query_len(0, 2_000).bytes, 310);
        assert_eq!(RequestSpec::for_query_len(1, 2_000).bytes, 310 + 2); // ceil(1.2) = 2
        assert_eq!(RequestSpec::for_query_len(5, 2_000).bytes, 310 + 6);
        assert_eq!(RequestSpec::for_query_len(10, 2_000).bytes, 310 + 12);
        let long = RequestSpec::for_query_len(80, 2_001);
        assert_eq!(long.bytes, 310 + 96);
        assert_eq!(long.content, 2_001);
    }

    #[test]
    fn plan_totals() {
        let p = ResponsePlan::new(8_000, 1, 25_000, 5_000);
        assert_eq!(p.total_bytes(), 33_000);
        // The placeholder plans the world records for shed, degraded and
        // unanswered queries sit exactly on the 1-byte boundary.
        assert_eq!(ResponsePlan::new(1, 1, 1, 5_000).total_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "static content id")]
    fn static_id_range_enforced() {
        ResponsePlan::new(8_000, 5_000, 25_000, 5_000);
    }

    #[test]
    #[should_panic(expected = "dynamic content id")]
    fn dynamic_id_range_enforced() {
        ResponsePlan::new(8_000, 1, 25_000, 2);
    }

    #[test]
    #[should_panic(expected = "static_bytes > 0")]
    fn zero_length_static_portion_is_rejected() {
        ResponsePlan::new(0, 1, 25_000, 5_000);
    }

    #[test]
    #[should_panic(expected = "static_bytes > 0")]
    fn zero_length_dynamic_portion_is_rejected() {
        ResponsePlan::new(8_000, 1, 0, 5_000);
    }
}
