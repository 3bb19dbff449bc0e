package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/units"
)

// TestOptimizeDefaultStudy pins the acceptance shape of the optimizer: the
// default study's frontier is non-empty under a binding power cap, greedy
// search reaches the grid frontier while simulating strictly fewer points,
// and every frontier row's recipe reproduces the simulation it tabulates.
func TestOptimizeDefaultStudy(t *testing.T) {
	SetOptions(runner.Options{Parallelism: 4})
	defer SetOptions(runner.Options{})
	grid, err := Optimize(context.Background(), DefaultOptimizeSpace(), dse.Options{
		Search:    dse.Grid,
		Objective: dse.PerfPerDollar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Frontier) == 0 {
		t.Fatal("default study produced an empty frontier")
	}
	if grid.Dominated == 0 {
		t.Fatal("default study should contain dominated points (the wider precisions)")
	}

	greedy, err := Optimize(context.Background(), DefaultOptimizeSpace(), dse.Options{
		Search:    dse.Greedy,
		Objective: dse.PerfPerDollar,
	})
	if err != nil {
		t.Fatal(err)
	}
	gridPts, greedyPts := points(grid), points(greedy)
	if !reflect.DeepEqual(gridPts, greedyPts) {
		t.Fatalf("greedy frontier diverged from grid on the default study:\ngrid:   %v\ngreedy: %v", gridPts, greedyPts)
	}
	if greedy.Simulated >= grid.Simulated {
		t.Fatalf("greedy simulated %d points, grid %d; want strictly fewer", greedy.Simulated, grid.Simulated)
	}

	// Constraint form of the acceptance criterion: a binding power cap
	// still yields a non-empty frontier, and every member respects it.
	capped, err := Optimize(context.Background(), DefaultOptimizeSpace(), dse.Options{
		Search:      dse.Grid,
		Objective:   dse.PerfPerDollar,
		Constraints: dse.Constraints{MaxPowerW: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Frontier) == 0 || capped.Pruned == 0 {
		t.Fatalf("power-capped study: frontier %d, pruned %d; want both positive", len(capped.Frontier), capped.Pruned)
	}
	for _, e := range capped.Frontier {
		if e.Metrics.PowerW > 4000 {
			t.Fatalf("frontier member exceeds the power cap: %+v", e.Metrics)
		}
	}

	// Reproducibility: re-simulating each frontier point through its
	// recipe axes returns the exact iteration the frontier tabulates.
	for _, e := range grid.Frontier {
		iter, err := recipeIter(context.Background(), e.Point)
		if err != nil {
			t.Fatalf("recipe %q failed: %v", e.Point.Recipe(), err)
		}
		if iter != e.Iter {
			t.Fatalf("recipe %q reproduced %v, frontier row says %v", e.Point.Recipe(), iter, e.Iter)
		}
	}
}

// recipeIter re-simulates one frontier recipe through the shared engine and
// reports its iteration time: a frontier row's recipe must land on the same
// simulation the search saw.
func recipeIter(ctx context.Context, p dse.Point) (units.Time, error) {
	d, err := p.DesignPoint()
	if err != nil {
		return 0, err
	}
	rs, err := submit(ctx, []runner.Job{p.Job(d)})
	if err != nil {
		return 0, err
	}
	return rs[0].IterationTime, nil
}

func points(r dse.Result) []dse.Point {
	pts := make([]dse.Point, len(r.Frontier))
	for i, e := range r.Frontier {
		pts[i] = e.Point
	}
	return pts
}

// TestOptimizeReportShape checks the report carries the recipe column and
// the accounting notes every consumer (CLI text, /v1/optimize JSON) relies
// on.
func TestOptimizeReportShape(t *testing.T) {
	SetOptions(runner.Options{Parallelism: 4})
	defer SetOptions(runner.Options{})
	space := dse.Space{
		Workloads:  DefaultOptimizeSpace().Workloads,
		Designs:    []string{"MC-DLA(B)"},
		Strategies: DefaultOptimizeSpace().Strategies,
		Batches:    []int{Batch},
		MemNodes:   []int{4, 8},
	}
	res, err := Optimize(context.Background(), space, dse.Options{Objective: dse.PerfPerWatt})
	if err != nil {
		t.Fatal(err)
	}
	rep := OptimizeReport(res)
	if rep.Name != "optimize" {
		t.Fatalf("report name = %q", rep.Name)
	}
	tbl := rep.Sections[0].Table
	last := tbl.Columns[len(tbl.Columns)-1]
	if last != "recipe" {
		t.Fatalf("last column = %q, want the recipe", last)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[len(row)-1].Text, "mcdla run ") {
			t.Fatalf("recipe cell %q is not a run invocation", row[len(row)-1].Text)
		}
	}
	text := report.Text(rep)
	for _, want := range []string{"objective: perf-per-watt", "candidates:", "frontier:", "best perf-per-watt:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
	// An infeasible study renders the empty-frontier note instead of a
	// bare table.
	empty, err := Optimize(context.Background(), space, dse.Options{
		Constraints: dse.Constraints{MaxCostUSD: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.Text(OptimizeReport(empty)), "no feasible candidate") {
		t.Fatal("empty frontier must say so")
	}
}
