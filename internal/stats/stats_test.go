package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max should be 0")
	}
}

func TestSpeedupEfficiencyPercent(t *testing.T) {
	if !almost(Speedup(100, 25), 4) {
		t.Error("speedup")
	}
	if Speedup(100, 0) != 0 {
		t.Error("speedup by zero")
	}
	if !almost(Percent(1, 8), 12.5) || Percent(1, 0) != 0 {
		t.Error("percent")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Storage overhead", "quantity", "bytes", "percent")
	tb.AddRow("system tables", "2880", "0.122")
	tb.AddRowf("local per PE", 24576, 2.34375)
	tb.AddRowf("mixed", "text", int64(7), 1.5)
	s := tb.String()
	for _, want := range []string{"Storage overhead", "quantity", "system tables", "24576", "2.34", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Title, header, rule, three rows.
	if len(lines) != 6 {
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	// Extra cells are dropped, missing cells blank.
	tb2 := NewTable("", "a", "b")
	tb2.AddRow("1", "2", "3").AddRow("only")
	if !strings.Contains(tb2.String(), "only") || strings.Contains(tb2.String(), "3") {
		t.Errorf("cell clipping wrong:\n%s", tb2.String())
	}
}

// Property: mean lies between min and max, and speedup of identical times is 1.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			// Skip non-finite and extreme values whose sum would overflow;
			// experiment data are tick counts and byte counts, well inside
			// this range.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		if m < Min(xs)-1e-6 || m > Max(xs)+1e-6 {
			return false
		}
		return almost(Speedup(42, 42), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
