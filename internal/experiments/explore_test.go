package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/report"
)

func TestExploreSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	rows, err := Explore(context.Background(), []int{4, 6}, []float64{25, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("row count = %d", len(rows))
	}
	byVirt := map[float64]float64{}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("N=%d B=%g: MC-DLA(B) speedup %.2f not above 1", r.Links, r.LinkBW, r.Speedup)
		}
		if r.VirtBW != float64(r.Links)*r.LinkBW {
			t.Errorf("derived virt bw wrong: %+v", r)
		}
		byVirt[r.VirtBW] = r.Speedup
	}
	// The §III-B scaling claim: more link bandwidth → larger advantage.
	if byVirt[300] <= byVirt[100] {
		t.Fatalf("speedup must grow with link technology: %+v", byVirt)
	}
	out := report.Text(ExploreReport(rows))
	if !strings.Contains(out, "Design-space exploration") {
		t.Error("render incomplete")
	}
}

func TestScaleOutRowsDivisibleBatch(t *testing.T) {
	pts, err := ScaleOutRows(context.Background(), "ResNet", []int{1, 2, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("point count = %d", len(pts))
	}
	if pts[2].Devices != 32 {
		t.Fatalf("devices = %d", pts[2].Devices)
	}
	if pts[0].SpeedupMC != 1 {
		t.Fatal("first point must be the baseline")
	}
	out := report.Text(ScaleOutReport("ResNet", pts, false))
	if !strings.Contains(out, "Figure 15") || !strings.Contains(out, "event-driven") {
		t.Error("render incomplete")
	}
}

func TestScaleOutAnalyticVsEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	counts := []int{1, 4}
	analytic, err := ScaleOutRows(context.Background(), "VGG-E", counts, true)
	if err != nil {
		t.Fatal(err)
	}
	event, err := ScaleOutRows(context.Background(), "VGG-E", counts, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		a, e := analytic[i].IterMC.Seconds(), event[i].IterMC.Seconds()
		if d := (e - a) / a; d < -0.15 || d > 0.15 {
			t.Errorf("n=%d: MC divergence %.1f%% outside ±15%%", counts[i], 100*d)
		}
	}
	rows, err := ScaleOutCompare(context.Background(), "VGG-E", counts, event)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("compare row count = %d", len(rows))
	}
	if rows[1].Hybrid <= 0 {
		t.Error("multi-chassis point must carry a hybrid iteration")
	}
	out := report.Text(ScaleOutCompareReport("VGG-E", rows))
	if !strings.Contains(out, "divergence") {
		t.Error("render incomplete")
	}
}
