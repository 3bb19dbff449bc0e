package experiments

import (
	"context"
	"testing"

	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
)

// TestGeneratorsDeterministicUnderParallelism renders every generator once on
// a single-worker engine and once on an eight-worker engine and requires
// byte-identical output: the acceptance bar for the runner refactor is that
// fanning the grids out changes only when jobs run, never what they produce.
func TestGeneratorsDeterministicUnderParallelism(t *testing.T) {
	generators := map[string]func() (string, error){
		"fig2": func() (string, error) {
			rows, err := Fig2(context.Background())
			return report.Text(Fig2Report(rows)), err
		},
		"fig11-dp": func() (string, error) {
			rows, err := Fig11(context.Background(), train.DataParallel)
			return report.Text(Fig11Report(rows, train.DataParallel)), err
		},
		"fig11-mp": func() (string, error) {
			rows, err := Fig11(context.Background(), train.ModelParallel)
			return report.Text(Fig11Report(rows, train.ModelParallel)), err
		},
		"fig12": func() (string, error) {
			rows, err := Fig12(context.Background())
			return report.Text(Fig12Report(rows)), err
		},
		"fig13-dp": func() (string, error) {
			rows, speedups, err := Fig13(context.Background(), train.DataParallel)
			return report.Text(Fig13Report(rows, speedups, train.DataParallel)), err
		},
		"headline": func() (string, error) {
			h, err := RunHeadline(context.Background())
			return report.Text(HeadlineReport(h)), err
		},
		"scale": func() (string, error) {
			rows, err := Scalability(context.Background())
			return report.Text(ScalabilityReport(rows)), err
		},
		"explore": func() (string, error) {
			rows, err := Explore(context.Background(), []int{6}, []float64{25, 50})
			return report.Text(ExploreReport(rows)), err
		},
	}
	if !testing.Short() {
		generators["fig14"] = func() (string, error) {
			rows, err := Fig14(context.Background())
			return report.Text(Fig14Report(rows)), err
		}
		generators["sens"] = func() (string, error) {
			rows, err := Sensitivity(context.Background())
			return report.Text(SensitivityReport(rows)), err
		}
	}

	t.Cleanup(func() { SetOptions(runner.Options{}) })
	for name, gen := range generators {
		SetOptions(runner.Options{Parallelism: 1})
		want, err := gen()
		if err != nil {
			t.Fatalf("%s (sequential): %v", name, err)
		}
		SetOptions(runner.Options{Parallelism: 8})
		got, err := gen()
		if err != nil {
			t.Fatalf("%s (parallel): %v", name, err)
		}
		if got != want {
			t.Errorf("%s: parallel output differs from the sequential reference", name)
		}
	}
}

// TestReportByteIdenticalAcrossRepeats builds the same report 50 times on a
// fanned-out engine and requires every rendering to be byte-identical to the
// first. With -race (the CI default for tier-1) this doubles as the
// scheduler-interleaving probe behind the maporder analyzer: a map-ordered
// row, an unsorted key extraction, or a racy accumulator shows up here as a
// flaky byte diff long before a golden fixture catches it.
func TestReportByteIdenticalAcrossRepeats(t *testing.T) {
	SetOptions(runner.Options{Parallelism: 8})
	t.Cleanup(func() { SetOptions(runner.Options{}) })
	build := func() string {
		rows, err := Explore(context.Background(), []int{4, 6}, []float64{25, 50})
		if err != nil {
			t.Fatal(err)
		}
		return report.Text(ExploreReport(rows))
	}
	want := build()
	for i := 1; i < 50; i++ {
		if got := build(); got != want {
			t.Fatalf("repeat %d: report bytes diverged from the first build", i)
		}
	}
}

// TestEngineCacheSharedAcrossGenerators checks that overlapping sweeps reuse
// simulations: the headline regenerates the same workload × design plane
// Figure 11 already simulated, so a second generator on the same engine must
// record cache hits.
func TestEngineCacheSharedAcrossGenerators(t *testing.T) {
	SetOptions(runner.Options{Parallelism: 4})
	t.Cleanup(func() { SetOptions(runner.Options{}) })
	if _, err := Fig11(context.Background(), train.DataParallel); err != nil {
		t.Fatal(err)
	}
	before := EngineStats()
	if _, _, err := Fig13(context.Background(), train.DataParallel); err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if after.Misses != before.Misses {
		t.Errorf("Fig13 re-simulated %d jobs Fig11 already ran", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Error("Fig13 recorded no cache hits after Fig11 populated the engine")
	}
}
