package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eagerRNG is the frozen reference stream: it builds its source at
// construction, as RNG did before sources were built on first draw.
// Every method is the pre-change body verbatim.
type eagerRNG struct{ r *rand.Rand }

func newEager(seed int64) *eagerRNG { return &eagerRNG{r: rand.New(rand.NewSource(seed))} }

func (g *eagerRNG) fork(label string) *eagerRNG {
	h := int64(14695981039346656037 & 0x7fffffffffffffff)
	for _, c := range label {
		h = (h ^ int64(c)) * 1099511628211
	}
	return newEager(g.r.Int63() ^ h)
}

func (g *eagerRNG) normal(mean, stdev float64) float64 { return mean + stdev*g.r.NormFloat64() }

func (g *eagerRNG) truncNormal(mean, stdev, lo, hi float64) float64 {
	if stdev <= 0 {
		return math.Min(hi, math.Max(lo, mean))
	}
	for i := 0; i < 8; i++ {
		x := g.normal(mean, stdev)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

func (g *eagerRNG) exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// TestLazyRNGMatchesEager drives lazily built streams and the frozen
// eager reference through the same random interleavings of Fork and
// every draw method. Some forks are drawn from at once, some late and
// some never; every draw must agree bit for bit, so building a source
// on first use changes no stream.
func TestLazyRNGMatchesEager(t *testing.T) {
	labels := []string{"server/a", "downtime", "workgaps", "avail/compute", ""}
	for seed := int64(0); seed < 50; seed++ {
		drv := rand.New(rand.NewSource(seed))
		lazy := []*RNG{NewRNG(seed)}
		eager := []*eagerRNG{newEager(seed)}
		for step := 0; step < 400; step++ {
			i := drv.Intn(len(lazy))
			g, ref := lazy[i], eager[i]
			var got, want []float64
			switch op := drv.Intn(10); op {
			case 0:
				l := labels[drv.Intn(len(labels))]
				lazy = append(lazy, g.Fork(l))
				eager = append(eager, ref.fork(l))
				continue
			case 1:
				got, want = []float64{g.Float64()}, []float64{ref.r.Float64()}
			case 2:
				n := 1 + drv.Intn(100)
				got, want = []float64{float64(g.Intn(n))}, []float64{float64(ref.r.Intn(n))}
			case 3:
				got, want = []float64{g.Uniform(2, 5)}, []float64{2 + 3*ref.r.Float64()}
			case 4:
				got, want = []float64{g.Normal(10, 3)}, []float64{ref.normal(10, 3)}
			case 5:
				sd := float64(drv.Intn(3)) * 400 // 0 exercises the no-draw branch
				got, want = []float64{g.TruncNormal(1000, sd, 100, 1500)}, []float64{ref.truncNormal(1000, sd, 100, 1500)}
			case 6:
				m := float64(drv.Intn(3)) * 50 // 0 draws nothing
				got, want = []float64{g.Exp(m)}, []float64{ref.exp(m)}
			case 7:
				got, want = []float64{g.Lognormal(0, 0.5)}, []float64{math.Exp(ref.normal(0, 0.5))}
			case 8:
				n := drv.Intn(8)
				for _, v := range g.Perm(n) {
					got = append(got, float64(v))
				}
				for _, v := range ref.r.Perm(n) {
					want = append(want, float64(v))
				}
			case 9:
				continue // leave this step's stream untouched
			}
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("seed %d step %d stream %d: got %v, want %v", seed, step, i, got, want)
			}
		}
	}
}

var forkSink *RNG

// TestForkUndrawnAllocatesOnlyRNG checks that a fork pays for its
// source only when drawn from: forking from a drawn parent allocates
// the child RNG and nothing else.
func TestForkUndrawnAllocatesOnlyRNG(t *testing.T) {
	g := NewRNG(1)
	g.Float64()
	if n := testing.AllocsPerRun(100, func() { forkSink = g.Fork("workgaps") }); n != 1 {
		t.Fatalf("undrawn Fork allocates %v times, want 1 (the RNG)", n)
	}
	if forkSink.r != nil {
		t.Fatal("Fork built the child's source before its first draw")
	}
	forkSink.Float64()
	if forkSink.r == nil {
		t.Fatal("first draw did not build the source")
	}
}
