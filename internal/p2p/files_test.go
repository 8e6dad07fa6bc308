package p2p

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFileConfigValidate(t *testing.T) {
	if err := DefaultFileConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []FileConfig{
		{NumFiles: 0, MaxFreq: 0.4},
		{NumFiles: 20, MaxFreq: 0},
		{NumFiles: 20, MaxFreq: 1.5},
	}
	for _, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestZipfFrequency(t *testing.T) {
	c := DefaultFileConfig()
	// "the most popular file will be present in 40% of all nodes, the
	// second most popular one in 20%, the third in 40%/3, and so on."
	if got := c.Frequency(0); got != 0.40 {
		t.Errorf("Frequency(0) = %v, want 0.40", got)
	}
	if got := c.Frequency(1); got != 0.20 {
		t.Errorf("Frequency(1) = %v, want 0.20", got)
	}
	if got := c.Frequency(3); got != 0.10 {
		t.Errorf("Frequency(3) = %v, want 0.10", got)
	}
}

func TestPlaceFilesMatchesZipf(t *testing.T) {
	c := DefaultFileConfig()
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	held := c.PlaceFiles(n, rng)
	for r := 0; r < c.NumFiles; r++ {
		holders := 0
		for i := 0; i < n; i++ {
			if held[i][r] {
				holders++
			}
		}
		want := c.Frequency(r) * n
		if float64(holders) < want*0.85 || float64(holders) > want*1.15 {
			t.Errorf("file %d holders = %d, want ~%.0f", r, holders, want)
		}
	}
}

func TestPlaceFilesEveryFileHasHolder(t *testing.T) {
	c := FileConfig{NumFiles: 40, MaxFreq: 0.05} // rare files on few nodes
	rng := rand.New(rand.NewSource(2))
	held := c.PlaceFiles(8, rng)
	for r := 0; r < c.NumFiles; r++ {
		holders := 0
		for i := range held {
			if held[i][r] {
				holders++
			}
		}
		if holders == 0 {
			t.Errorf("file %d has no holder", r)
		}
	}
}

// Property: holdings matrix is well-formed and popularity is (in
// expectation) nonincreasing with rank for large n.
func TestQuickPlaceFilesShape(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := DefaultFileConfig()
		const n = 3000
		held := c.PlaceFiles(n, rng)
		if len(held) != n {
			return false
		}
		counts := make([]int, c.NumFiles)
		for i := range held {
			if len(held[i]) != c.NumFiles {
				return false
			}
			for r, h := range held[i] {
				if h {
					counts[r]++
				}
			}
		}
		// Allow sampling noise: rank 0 must clearly beat rank 4, rank 4
		// must beat rank 19.
		return counts[0] > counts[4] && counts[4] > counts[19] && counts[19] >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.MaxNConn = 0 },
		func(p *Params) { p.NHopsInitial = 0 },
		func(p *Params) { p.NHopsInitial = p.MaxNHops + 1 },
		func(p *Params) { p.NHopsBasic = 0 },
		func(p *Params) { p.MaxDist = 0 },
		func(p *Params) { p.MaxNSlaves = 0 },
		func(p *Params) { p.QueryTTL = 0 },
		func(p *Params) { p.TimerInitial = 0 },
		func(p *Params) { p.MaxTimer = p.TimerInitial / 2 },
		func(p *Params) { p.PingInterval = 0 },
		func(p *Params) { p.QueryGapMax = p.QueryGapMin - 1 },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{Basic: "Basic", Regular: "Regular", Random: "Random", Hybrid: "Hybrid"}
	for alg, name := range want {
		if alg.String() != name {
			t.Errorf("String() = %q, want %q", alg.String(), name)
		}
	}
	if len(Algorithms()) != 4 {
		t.Error("Algorithms() must list all four")
	}
	// The same table parses the names back, bounds the range and is what
	// an unknown name's error lists.
	for _, alg := range Algorithms() {
		if got, err := ParseAlgorithm(strings.ToUpper(alg.String())); err != nil || got != alg || !alg.Valid() {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; Valid = %v", strings.ToUpper(alg.String()), got, err, alg.Valid())
		}
		if alg.Symmetric() != (alg != Basic) {
			t.Errorf("%v.Symmetric() = %v: only Basic keeps one-directional references", alg, alg.Symmetric())
		}
	}
	if _, err := ParseAlgorithm("chord"); err == nil || !strings.Contains(err.Error(), "basic|regular|random|hybrid") {
		t.Errorf(`ParseAlgorithm("chord") = %v, want an error listing the names`, err)
	}
	if Algorithm(4).Valid() || Algorithm(-1).Valid() || Algorithm(9).String() != "Algorithm(9)" {
		t.Error("out-of-range algorithms must be invalid and print their number")
	}
}

func TestHybridStateString(t *testing.T) {
	for st, name := range map[HybridState]string{
		StateInitial: "initial", StateMaster: "master", StateSlave: "slave", StateReserved: "reserved",
	} {
		if st.String() != name {
			t.Errorf("String() = %q, want %q", st.String(), name)
		}
	}
}
