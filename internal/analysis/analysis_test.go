package analysis

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

func series(startUS, stepUS int64, vals ...float64) *mscopedb.Series {
	s := &mscopedb.Series{}
	for i, v := range vals {
		s.StartMicros = append(s.StartMicros, startUS+int64(i)*stepUS)
		s.Values = append(s.Values, v)
	}
	return s
}

func TestPearsonPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if r := pearson(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v", r)
	}
	c := []float64{8, 6, 4, 2}
	if r := pearson(a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v", r)
	}
}

func TestPearsonConstant(t *testing.T) {
	if r := pearson([]float64{1, 1, 1}, []float64{2, 3, 4}); r != 0 {
		t.Fatalf("constant vector r = %v", r)
	}
	if r := pearson(nil, nil); r != 0 {
		t.Fatalf("empty r = %v", r)
	}
}

func TestPearsonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	pearson([]float64{1}, []float64{1, 2})
}

// Property: pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(raw[i])
			b[i] = float64(raw[n+i])
		}
		r1, r2 := pearson(a, b), pearson(b, a)
		if math.Abs(r1-r2) > 1e-9 {
			return false
		}
		return r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignIntersects(t *testing.T) {
	a := series(0, 100, 1, 2, 3, 4)
	b := series(100, 100, 20, 30, 40, 50) // overlaps at 100,200,300
	x, y := Align(a, b)
	if len(x) != 3 {
		t.Fatalf("aligned %d points", len(x))
	}
	if x[0] != 2 || y[0] != 20 {
		t.Fatalf("alignment wrong: %v %v", x, y)
	}
	corr, n := Correlate(a, b)
	if n != 3 || math.Abs(corr-1) > 1e-12 {
		t.Fatalf("correlate %v %d", corr, n)
	}
}

func TestCrossCorrelateFindsLag(t *testing.T) {
	// b is a copy of a delayed by exactly 2 windows.
	a := series(0, 1000, 1, 1, 9, 9, 1, 1, 1, 1, 1, 1)
	b := series(0, 1000, 1, 1, 1, 1, 9, 9, 1, 1, 1, 1)
	zero, _ := Correlate(a, b)
	best, lag := CrossCorrelate(a, b, 4)
	if lag != 2 {
		t.Fatalf("best lag %d, want 2", lag)
	}
	if best <= zero || best < 0.95 {
		t.Fatalf("best corr %v (zero-lag %v)", best, zero)
	}
}

func TestCrossCorrelateDegenerate(t *testing.T) {
	a := series(0, 1000, 1, 2)
	b := series(0, 1000, 5)
	c, lag := CrossCorrelate(a, b, 3)
	if lag != 0 {
		t.Fatalf("degenerate lag %d", lag)
	}
	_ = c
}

func TestSliceSeries(t *testing.T) {
	s := series(0, 1000, 1, 2, 3, 4, 5)
	sub := SliceSeries(s, 1000, 3000)
	if len(sub.Values) != 3 || sub.Values[0] != 2 || sub.Values[2] != 4 {
		t.Fatalf("slice %+v", sub)
	}
}

func TestDetectPushback(t *testing.T) {
	w := Window{StartMicros: 4000, EndMicros: 7000}
	mk := func(spikeVals ...float64) *mscopedb.Series {
		base := []float64{1, 1, 1, 1}
		vals := append(append([]float64{}, base...), spikeVals...)
		vals = append(vals, 1, 1, 1)
		return series(0, 1000, vals...)
	}
	queues := map[string]*mscopedb.Series{
		"apache": mk(40, 45, 50, 40),
		"tomcat": mk(30, 35, 40, 30),
		"cjdbc":  mk(20, 25, 30, 20),
		"mysql":  mk(25, 30, 35, 25),
	}
	order := []string{"apache", "tomcat", "cjdbc", "mysql"}
	res := DetectPushback(queues, order, w, 3)
	if !res.CrossTier {
		t.Fatalf("cross-tier pushback not detected: %+v", res)
	}
	if len(res.Grew) != 4 {
		t.Fatalf("grew %v", res.Grew)
	}

	// Only apache grows: no cross-tier amplification (Figure 8b peak 1).
	queues2 := map[string]*mscopedb.Series{
		"apache": mk(40, 45, 50, 40),
		"tomcat": mk(1, 1, 1, 1),
		"cjdbc":  mk(1, 1, 1, 1),
		"mysql":  mk(1, 1, 1, 1),
	}
	res2 := DetectPushback(queues2, order, w, 3)
	if res2.CrossTier {
		t.Fatalf("single-tier growth misclassified: %+v", res2)
	}
	if len(res2.Grew) != 1 || res2.Grew[0] != "apache" {
		t.Fatalf("grew %v", res2.Grew)
	}
}

func TestWindowDuration(t *testing.T) {
	w := Window{StartMicros: 1000, EndMicros: 351_000}
	if w.Duration() != 350*time.Millisecond {
		t.Fatalf("duration %v", w.Duration())
	}
}
