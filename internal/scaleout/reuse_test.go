package scaleout

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
)

// TestPooledStorageKeepsBits runs one grid twice in a process, forward and
// then in reverse, each pass on two workers: every standard design × VGG-E
// and RNN-GRU × dp/mp on the core engine, and the BERT-Large plane at 1 and
// 2 system nodes, DC and MC, data-parallel and hybrid. Every point runs
// untraced and traced. Both passes take their channels and tables from the
// pools the points before them, in either order and on either worker, put
// back, so each point's result and span digest must match the first pass
// bit for bit.
func TestPooledStorageKeepsBits(t *testing.T) {
	eng := runner.New(runner.Options{Parallelism: 2})
	type point struct {
		name string
		run  func(tr *trace.Log) (any, error)
	}
	var grid []point
	for _, d := range core.StandardDesigns() {
		for _, w := range []string{"VGG-E", "RNN-GRU"} {
			for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				s, err := eng.Schedule(runner.Job{Workload: w, Strategy: st, Batch: 512, Workers: 8})
				if err != nil {
					t.Fatal(err)
				}
				grid = append(grid, point{
					name: fmt.Sprintf("core %s %s %v", d.Name, w, st),
					run:  func(tr *trace.Log) (any, error) { return core.SimulateTraced(d, s, tr) },
				})
			}
		}
	}
	for _, n := range []int{1, 2} {
		p := Default(n)
		p.Schedules = eng.Schedule
		batch := 64 * p.TotalDevices()
		for _, mc := range []bool{false, true} {
			for _, st := range []Strategy{DataParallel, Hybrid} {
				grid = append(grid, point{
					name: fmt.Sprintf("plane %d BERT-Large mc=%v %v", n, mc, st),
					run: func(tr *trace.Log) (any, error) {
						return p.SimulateTraced("BERT-Large", batch, mc, st, tr)
					},
				})
			}
		}
	}

	// pass renders every point of grid in the given order, untraced and
	// traced, and returns the lines in grid order.
	pass := func(order []int) []string {
		lines, err := runner.Fan(context.Background(), 2, len(order), func(k int) (string, error) {
			pt := grid[order[k]]
			plain, err := pt.run(nil)
			if err != nil {
				return "", fmt.Errorf("%s: %w", pt.name, err)
			}
			tr := &trace.Log{}
			traced, err := pt.run(tr)
			if err != nil {
				return "", fmt.Errorf("%s traced: %w", pt.name, err)
			}
			return fmt.Sprintf("%#v\n%#v\n%s", plain, traced, spanDigest(tr)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(grid))
		for k, i := range order {
			out[i] = lines[k]
		}
		return out
	}
	forward := make([]int, len(grid))
	for i := range forward {
		forward[i] = i
	}
	first := pass(forward)
	slices.Reverse(forward)
	second := pass(forward)
	for i, pt := range grid {
		if second[i] != first[i] {
			t.Errorf("%s: the reversed pass read\n%s\nthe forward pass\n%s", pt.name, second[i], first[i])
		}
	}
}
