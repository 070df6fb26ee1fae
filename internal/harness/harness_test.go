package harness

import (
	"strings"
	"sync"
	"testing"

	"rnuma/internal/config"
)

// shared harness: runs are memoized in the concurrent cache, so the whole
// suite costs one pass per (app, config) pair, fanned out across workers.
var (
	sharedOnce sync.Once
	shared     *Harness
)

func testHarness() *Harness {
	sharedOnce.Do(func() {
		scale := 0.3
		if testing.Short() {
			scale = 0.12 // reduced sweeps; shape assertions skip via skipShapeInShort
		}
		shared = New(scale)
	})
	return shared
}

// skipShapeInShort skips paper-shape assertion tests under -short: their
// numeric thresholds are calibrated at the full 0.3 test scale, and the
// full-scale sweeps are the slow part of the suite. The smoke test below
// still exercises every pipeline at the reduced scale.
func skipShapeInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-shape thresholds need the full test scale; run without -short")
	}
}

// TestSmoke runs a reduced two-app slice of every figure pipeline. Under
// -short this is the harness's main coverage; with full tests it rides the
// shared cache for free.
func TestSmoke(t *testing.T) {
	h := testHarness()
	apps := []string{"fft", "lu"}
	if _, err := h.Figure5(apps); err != nil {
		t.Fatal(err)
	}
	rows6, err := h.Figure6(apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows6 {
		if r.CCNUMA <= 0 || r.SCOMA <= 0 || r.RNUMA <= 0 {
			t.Errorf("%s: non-positive normalized times %+v", r.App, r)
		}
	}
	rows8, err := h.Figure8(apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows8 {
		if r.ByT[64] != 1.0 {
			t.Errorf("%s: T=64 not normalized to itself (%.2f)", r.App, r.ByT[64])
		}
	}
}

func TestUnknownApp(t *testing.T) {
	h := New(0.3)
	if _, err := h.Run("doom", config.Base(config.CCNUMA)); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestMemoization(t *testing.T) {
	h := testHarness()
	r1, err := h.Run("fft", config.Base(config.CCNUMA))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run("fft", config.Base(config.CCNUMA))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs not memoized")
	}
	// Different costs must not collide in the cache.
	soft := config.Base(config.CCNUMA)
	soft.Costs = config.SoftCosts()
	r3, err := h.Run("fft", soft)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("SOFT run collided with base run in the cache")
	}
}

// TestFigure6PaperShape asserts the paper's headline qualitative results
// (Section 5.2): R-NUMA is never the worst protocol, usually best or close
// to best, and each application's winner matches the paper's.
func TestFigure6PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Figure6(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig6Row{}
	for _, r := range rows {
		byApp[r.App] = r
		// (i) R-NUMA never performs worse than both CC-NUMA and S-COMA
		// (3% tolerance at the reduced test scale; full scale shows real
		// margins, see EXPERIMENTS.md).
		if r.RNUMA > r.CCNUMA*1.03 && r.RNUMA > r.SCOMA*1.03 {
			t.Errorf("%s: R-NUMA (%.2f) worse than both CC (%.2f) and SC (%.2f)",
				r.App, r.RNUMA, r.CCNUMA, r.SCOMA)
		}
		// (ii) The analytical competitive bound, with sim-scale slack:
		// R-NUMA within ~3x of the best protocol.
		if r.RNUMAOverBest > 3.0 {
			t.Errorf("%s: R-NUMA %.2fx worse than best protocol (bound ~3x)",
				r.App, r.RNUMAOverBest)
		}
		// All protocols are at least as slow as the ideal machine.
		for name, v := range map[string]float64{"CC": r.CCNUMA, "SC": r.SCOMA, "RN": r.RNUMA} {
			if v < 0.95 {
				t.Errorf("%s: %s normalized %.2f below the ideal baseline", r.App, name, v)
			}
		}
	}
	// Per-application winners, from Section 5.2.
	ccWins := []string{"em3d", "fft", "fmm", "radix"} // block-cache-friendly
	scWins := []string{"cholesky", "lu", "moldyn"}    // page-cache-friendly
	rnWins := []string{"barnes", "ocean", "raytrace"} // R-NUMA beats both
	const slack = 1.05                                // reduced-scale tolerance; see EXPERIMENTS.md for full scale
	for _, a := range ccWins {
		r := byApp[a]
		if r.CCNUMA > r.SCOMA*slack {
			t.Errorf("%s: CC-NUMA (%.2f) should beat S-COMA (%.2f)", a, r.CCNUMA, r.SCOMA)
		}
		if r.RNUMA > r.SCOMA*slack {
			t.Errorf("%s: R-NUMA (%.2f) should stay below S-COMA (%.2f)", a, r.RNUMA, r.SCOMA)
		}
	}
	for _, a := range scWins {
		r := byApp[a]
		if r.SCOMA > r.CCNUMA*slack {
			t.Errorf("%s: S-COMA (%.2f) should beat CC-NUMA (%.2f)", a, r.SCOMA, r.CCNUMA)
		}
		if r.RNUMA > r.CCNUMA*slack {
			t.Errorf("%s: R-NUMA (%.2f) should stay below CC-NUMA (%.2f)", a, r.RNUMA, r.CCNUMA)
		}
	}
	for _, a := range rnWins {
		r := byApp[a]
		// At the reduced test scale the win margins shrink (the
		// full-scale values in EXPERIMENTS.md show clear wins).
		if r.RNUMA > r.CCNUMA*slack || r.RNUMA > r.SCOMA*slack {
			t.Errorf("%s: R-NUMA (%.2f) should beat both CC (%.2f) and SC (%.2f)",
				a, r.RNUMA, r.CCNUMA, r.SCOMA)
		}
	}
}

// TestFigure5PaperShape: fft has no refetches (the paper omits it); the
// tree/scene codes are strongly skewed; radix is spread evenly.
func TestFigure5PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	curves, err := h.Figure5(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig5Curve{}
	for _, c := range curves {
		byApp[c.App] = c
	}
	if len(byApp["fft"].Points) != 0 {
		t.Error("fft should have no refetches (paper omits it from Figure 5)")
	}
	for _, skewed := range []string{"barnes", "raytrace"} {
		if c := byApp[skewed]; c.At10 < 40 {
			t.Errorf("%s: top 10%% of pages cover only %.0f%% of refetches; expected strong skew", skewed, c.At10)
		}
	}
	// Radix spreads refetches evenly: far from fully concentrated.
	if c := byApp["radix"]; c.At10 > 60 {
		t.Errorf("radix: top 10%% of pages cover %.0f%%; the paper's radix curve is near-diagonal", c.At10)
	}
}

// TestTable4PaperShape: read-write page fractions per the paper's Table 4.
func TestTable4PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Table4(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// Mostly read-write refetches (paper: 82-100%).
	for _, a := range []string{"barnes", "em3d", "fmm", "lu", "moldyn", "ocean"} {
		if v := byApp[a].RWPagePct; v < 70 {
			t.Errorf("%s: RW refetch share %.0f%%, paper reports >80%%", a, v)
		}
	}
	// Mostly read-only refetches (paper: cholesky 28%, radix 15%, raytrace 5%).
	for _, a := range []string{"cholesky", "radix", "raytrace"} {
		if v := byApp[a].RWPagePct; v > 50 {
			t.Errorf("%s: RW refetch share %.0f%%, paper reports <30%%", a, v)
		}
	}
	// R-NUMA eliminates most refetches for the reuse apps...
	for _, a := range []string{"barnes", "moldyn", "lu"} {
		if v := byApp[a].RefetchPct; v > 60 {
			t.Errorf("%s: R-NUMA keeps %.0f%% of CC-NUMA's refetches; paper shows large reductions", a, v)
		}
	}
	// ...but increases them for the bouncing apps (paper: fmm 142%, radix 125%).
	for _, a := range []string{"fmm", "radix"} {
		if v := byApp[a].RefetchPct; v < 100 {
			t.Errorf("%s: R-NUMA refetches %.0f%% of CC-NUMA's; paper shows an increase", a, v)
		}
	}
	// R-NUMA virtually eliminates replacements for most applications.
	elim := 0
	for _, r := range rows {
		if r.ReplacementPct <= 25 {
			elim++
		}
	}
	if elim < 6 {
		t.Errorf("R-NUMA kept replacements low in only %d/10 apps; paper shows near-elimination for most", elim)
	}
}

// TestFigure7PaperShape: CC-NUMA is highly sensitive to block cache size;
// R-NUMA barely cares unless the reuse set misses the page cache.
func TestFigure7PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Figure7(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	var ccSens, rnGain40M int
	for _, r := range rows {
		if r.CC1K < r.CC32K-0.02 {
			t.Errorf("%s: shrinking the block cache sped CC-NUMA up (%.2f -> %.2f)", r.App, r.CC32K, r.CC1K)
		}
		if r.CC1K > r.CC32K*1.3 {
			ccSens++
		}
		if r.R128p40M < r.R128p320K-0.02 {
			rnGain40M++
		}
		// A bigger page cache never hurts R-NUMA materially.
		if r.R128p40M > r.R128p320K*1.1 {
			t.Errorf("%s: 40-MB page cache slowed R-NUMA (%.2f -> %.2f)", r.App, r.R128p320K, r.R128p40M)
		}
	}
	if ccSens < 4 {
		t.Errorf("CC-NUMA showed >30%% block-cache sensitivity in only %d apps; paper: seven", ccSens)
	}
	if rnGain40M < 3 {
		t.Errorf("the 40-MB page cache helped R-NUMA in only %d apps; paper: fmm/radix/ocean class", rnGain40M)
	}
}

// TestFigure8PaperShape: threshold sensitivity is modest (paper: within
// 27% for all but three apps), and reuse-heavy apps prefer low thresholds.
func TestFigure8PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Figure8(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig8Row{}
	modest := 0
	for _, r := range rows {
		byApp[r.App] = r
		// T in {16, 256}: the paper reports at most 27% variation for all
		// but three applications. (T=1024 is checked separately: at test
		// scale the shortened runs never accumulate 1024 refetches per
		// page, so the no-relocation penalty is exaggerated relative to
		// the paper's full-length executions.)
		if v := r.ByT[16]; v < 0.73 || v > 1.27 {
			continue
		}
		if v := r.ByT[256]; v < 0.73 || v > 1.27 {
			continue
		}
		modest++
	}
	if modest < 7 {
		t.Errorf("threshold sensitivity modest in only %d/10 apps; paper: all but three within 27%%", modest)
	}
	for _, r := range rows {
		if r.ByT[64] != 1.0 {
			t.Errorf("%s: T=64 not normalized to itself (%.2f)", r.App, r.ByT[64])
		}
	}
	// Section 5.4: reuse-heavy apps benefit from (or are neutral to) a
	// low threshold of 16.
	for _, a := range []string{"cholesky", "lu", "moldyn", "ocean"} {
		if v := byApp[a].ByT[16]; v > 1.15 {
			t.Errorf("%s: T=16 costs %.2f; the paper's reuse apps gain up to 25%% from low thresholds", a, v)
		}
	}
	// A very large threshold effectively disables relocation and hurts
	// the reuse applications.
	hurt := 0
	for _, a := range []string{"barnes", "cholesky", "lu", "moldyn"} {
		if byApp[a].ByT[1024] > 1.2 {
			hurt++
		}
	}
	if hurt < 3 {
		t.Errorf("T=1024 hurt only %d reuse apps; disabling relocation should cost them", hurt)
	}
}

// TestFigure9PaperShape: S-COMA is highly sensitive to page-operation
// overheads; R-NUMA is not (paper Section 5.5).
func TestFigure9PaperShape(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Figure9(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	var scHit, rnCalm int
	for _, r := range rows {
		// The cost change perturbs event interleavings, so tiny
		// improvements are simulation noise; flag only real speedups.
		if r.SCOMASoft < r.SCOMA*0.95 || r.RNUMASoft < r.RNUMA*0.95 {
			t.Errorf("%s: tripling page-op overheads sped something up (SC %.2f->%.2f, RN %.2f->%.2f)",
				r.App, r.SCOMA, r.SCOMASoft, r.RNUMA, r.RNUMASoft)
		}
		if r.SCOMASoft > r.SCOMA*1.2 {
			scHit++
		}
		if r.RNUMASoft <= r.RNUMA*1.45 {
			rnCalm++
		}
	}
	if scHit < 4 {
		t.Errorf("S-COMA-SOFT hurt >20%% in only %d apps; paper: half the applications badly hurt", scHit)
	}
	if rnCalm < 8 {
		t.Errorf("R-NUMA-SOFT stayed within ~45%% in only %d apps; paper: all but lu within 25%%", rnCalm)
	}
}

// TestLuImbalance: two nodes perform the majority of lu's page
// replacements (Section 5.5).
func TestLuImbalance(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	share, err := h.LuImbalance()
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.5 {
		t.Errorf("top-2 nodes' replacement share = %.0f%%, paper reports >50%%", share*100)
	}
}

// TestWorstCaseQuotes: the abstract's quantitative claims hold
// qualitatively — CC-NUMA can be far worse than S-COMA (lu), S-COMA far
// worse than CC-NUMA (radix/fmm), while R-NUMA stays near the best.
func TestWorstCaseQuotes(t *testing.T) {
	skipShapeInShort(t)
	h := testHarness()
	rows, err := h.Figure6(AllApps())
	if err != nil {
		t.Fatal(err)
	}
	var ccOverSc, scOverCc, worstRn float64
	for _, r := range rows {
		if v := r.CCNUMA / r.SCOMA; v > ccOverSc {
			ccOverSc = v
		}
		if v := r.SCOMA / r.CCNUMA; v > scOverCc {
			scOverCc = v
		}
		if r.RNUMAOverBest > worstRn {
			worstRn = r.RNUMAOverBest
		}
	}
	// Paper: CC-NUMA up to 179% slower than S-COMA; S-COMA up to 315%
	// slower than CC-NUMA; R-NUMA at most 57% worse than the best. Check
	// the ordering of instability, with slack for the synthetic scale.
	if ccOverSc < 1.5 {
		t.Errorf("max CC/SC = %.2f; expected CC-NUMA to lose badly somewhere (paper: 2.8x)", ccOverSc)
	}
	if scOverCc < 1.5 {
		t.Errorf("max SC/CC = %.2f; expected S-COMA to lose badly somewhere (paper: 4.2x)", scOverCc)
	}
	// R-NUMA's instability is bounded below the static protocols' worst
	// (at test scale the fmm gap approaches S-COMA's, so compare against
	// the larger of the two).
	max := ccOverSc
	if scOverCc > max {
		max = scOverCc
	}
	if worstRn >= max {
		t.Errorf("R-NUMA's worst gap (%.2f) should be smaller than the static protocols' worst (CC %.2f, SC %.2f)",
			worstRn, ccOverSc, scOverCc)
	}
}

func TestSysKeyDistinguishesConfigs(t *testing.T) {
	a := config.Base(config.RNUMA)
	b := config.Base(config.RNUMA)
	b.Threshold = 16
	if sysKey(a) == sysKey(b) {
		t.Error("different thresholds share a cache key")
	}
	c := config.Base(config.RNUMA)
	c.PageCacheBytes = 40 << 20
	if sysKey(a) == sysKey(c) {
		t.Error("different page caches share a cache key")
	}
	if !strings.Contains(sysKey(a), "R-NUMA") {
		t.Errorf("key %q should name the protocol", sysKey(a))
	}
}
