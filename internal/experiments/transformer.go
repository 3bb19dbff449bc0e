package experiments

import (
	"context"
	"fmt"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// TransformerSeqLens is the default sequence-length axis of the transformer
// study: BERT-class pre-training (128/512) through GPT-2-class contexts
// (1024).
var TransformerSeqLens = []int{128, 256, 512, 1024}

// transformerDesigns are the design points of the study: the PCIe baseline,
// the proposed memory-centric design, and the infinite-memory oracle.
var transformerDesigns = []string{"DC-DLA", "MC-DLA(B)", "DC-DLA(O)"}

// TransformerRow is one (workload, seqlen, precision) point of the sweep.
type TransformerRow struct {
	Workload  string
	SeqLen    int
	Precision train.Precision
	// Iter maps design name to iteration time.
	Iter map[string]units.Time
	// Speedup is MC-DLA(B) over DC-DLA.
	Speedup float64
	// OracleFraction is MC-DLA(B) relative to DC-DLA(O).
	OracleFraction float64
	// VirtPerDevice is the per-device backing-store traffic (non-oracle).
	VirtPerDevice units.Bytes
	// ScoreShare is the fraction of the per-iteration stash that is
	// attention score tensors — the O(batch·heads·seq²) term.
	ScoreShare float64
}

// TransformerSweep runs the seqlen × precision × design grid for the
// transformer workloads, data-parallel at the paper batch, through the
// shared runner engine. Empty arguments select the default axes.
func TransformerSweep(ctx context.Context, workloads []string, seqlens []int, precs []train.Precision) ([]TransformerRow, error) {
	if len(workloads) == 0 {
		workloads = dnn.TransformerNames()
	}
	if len(seqlens) == 0 {
		seqlens = TransformerSeqLens
	}
	if len(precs) == 0 {
		precs = train.Precisions()
	}
	designs := make([]core.Design, 0, len(transformerDesigns))
	for _, dn := range transformerDesigns {
		designs = append(designs, mustDesign(dn))
	}
	jobs := runner.Grid{
		Workloads:  workloads,
		Designs:    designs,
		Strategies: []train.Strategy{train.DataParallel},
		Batches:    []int{Batch},
		SeqLens:    seqlens,
		Precisions: precs,
		Workers:    Workers,
		Tag:        "transformer",
	}.Jobs()
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []TransformerRow
	i := 0
	for _, net := range workloads {
		for _, seqlen := range seqlens {
			n, err := network(net, Batch/Workers, seqlen)
			if err != nil {
				return nil, err
			}
			g := n.Graph
			scoreShare := 0.0
			if stash := g.StashBytes(); stash > 0 {
				scoreShare = float64(g.ScoreBytes()) / float64(stash)
			}
			for _, prec := range precs {
				row := TransformerRow{
					Workload:   net,
					SeqLen:     seqlen,
					Precision:  prec,
					Iter:       make(map[string]units.Time, len(designs)),
					ScoreShare: scoreShare,
				}
				for _, dn := range transformerDesigns {
					r := rs[i]
					i++
					row.Iter[dn] = r.IterationTime
					if dn == "DC-DLA" {
						row.VirtPerDevice = r.VirtTraffic
					}
				}
				row.Speedup = row.Iter["DC-DLA"].Seconds() / row.Iter["MC-DLA(B)"].Seconds()
				row.OracleFraction = row.Iter["DC-DLA(O)"].Seconds() / row.Iter["MC-DLA(B)"].Seconds()
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// TransformerSweepReport builds the typed transformer-study report.
func TransformerSweepReport(rows []TransformerRow) *report.Report {
	t := report.NewTable("workload", "seqlen", "precision", "DC-DLA", "MC-DLA(B)", "DC-DLA(O)",
		"MC/DC speedup", "vs oracle", "DC virt/dev", "score share")
	for _, r := range rows {
		t.AddRow(report.Str(r.Workload), report.Int(r.SeqLen), report.Str(r.Precision.String()),
			report.Time(r.Iter["DC-DLA"]), report.Time(r.Iter["MC-DLA(B)"]), report.Time(r.Iter["DC-DLA(O)"]),
			report.Num(fmt.Sprintf("%.2fx", r.Speedup), r.Speedup),
			report.Num(fmt.Sprintf("%.0f%%", 100*r.OracleFraction), 100*r.OracleFraction),
			report.Bytes(r.VirtPerDevice),
			report.Num(fmt.Sprintf("%.0f%%", 100*r.ScoreShare), 100*r.ScoreShare))
	}
	return &report.Report{
		Name:  "transformer",
		Title: "Transformer workload axis: seqlen × precision × design (data-parallel, batch 512)",
		Sections: []report.Section{{Table: t, Notes: []string{
			"Attention score tensors grow O(batch·heads·seq²): the score share of the",
			"stash rises with seqlen, and with it the DC-DLA virtualization penalty.",
			"Mixed precision halves the migrated activation bytes (fp16) while the dW",
			"all-reduce widens to the fp32 master-weight gradients.",
		}}},
	}
}

// AttnCompressRow is one workload of the compression headline table.
type AttnCompressRow struct {
	Workload string
	Family   string
	// Ratio is the cDMA stash-weighted compression factor.
	Ratio float64
	// GapPlain / GapCDMA are DC-DLA/MC-DLA(B) iteration-time ratios without
	// and with the compressing DMA engine.
	GapPlain, GapCDMA float64
}

// AttentionCompress runs the headline table of the workload axis: the cDMA
// sensitivity of §V-B re-run with the transformer family alongside the CNNs.
// CNN activations are ReLU-sparse, so the compressor multiplies DC-DLA's
// effective PCIe bandwidth and narrows the gap; dense attention tensors
// compress at 1.0×, so for transformers the rescue does not exist and the
// DC-DLA↔MC-DLA gap survives intact.
func AttentionCompress(ctx context.Context) ([]AttnCompressRow, error) {
	type point struct {
		name, family string
		ratio        float64
	}
	var pts []point
	add := func(net, family string, batch int) error {
		n, err := network(net, batch, 0)
		if err != nil {
			return err
		}
		pts = append(pts, point{net, family, n.CompressRatio()})
		return nil
	}
	for _, net := range dnn.CNNNames() {
		if err := add(net, "CNN", Batch); err != nil {
			return nil, err
		}
	}
	for _, net := range dnn.TransformerNames() {
		if err := add(net, "Transformer", Batch/Workers); err != nil {
			return nil, err
		}
	}
	var jobs []runner.Job
	for _, p := range pts {
		dc := mustDesign("DC-DLA")
		cdma := mustDesign("DC-DLA")
		cdma.VirtBW = units.Bandwidth(float64(cdma.VirtBW) * p.ratio)
		mc := mustDesign("MC-DLA(B)")
		for _, d := range []core.Design{dc, cdma, mc} {
			jobs = append(jobs, runner.Job{
				Design: d, Workload: p.name, Strategy: train.DataParallel,
				Batch: Batch, Workers: Workers, Tag: "attn-cdma",
			})
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []AttnCompressRow
	for i, p := range pts {
		dc := rs[3*i].IterationTime.Seconds()
		cdma := rs[3*i+1].IterationTime.Seconds()
		mc := rs[3*i+2].IterationTime.Seconds()
		rows = append(rows, AttnCompressRow{
			Workload: p.name,
			Family:   p.family,
			Ratio:    p.ratio,
			GapPlain: dc / mc,
			GapCDMA:  cdma / mc,
		})
	}
	return rows, nil
}

// AttentionCompressReport builds the typed compression-headline report.
func AttentionCompressReport(rows []AttnCompressRow) *report.Report {
	t := report.NewTable("workload", "family", "cDMA ratio", "gap (plain)", "gap (cDMA)")
	gaps := map[string][]float64{}
	for _, r := range rows {
		t.AddRow(report.Str(r.Workload), report.Str(r.Family),
			report.Num(fmt.Sprintf("%.2fx", r.Ratio), r.Ratio),
			report.Num(fmt.Sprintf("%.2fx", r.GapPlain), r.GapPlain),
			report.Num(fmt.Sprintf("%.2fx", r.GapCDMA), r.GapCDMA))
		gaps[r.Family] = append(gaps[r.Family], r.GapCDMA)
	}
	return &report.Report{
		Name:  "attention-compress",
		Title: "Headline: attention doesn't compress — MC-DLA(B) gap over DC-DLA with cDMA",
		Sections: []report.Section{{Table: t, Notes: []string{
			fmt.Sprintf("cDMA rescues the CNNs (harmonic-mean residual gap %.2fx, paper: 2.3x)",
				metrics.HarmonicMean(gaps["CNN"])),
			fmt.Sprintf("but not the transformers (residual gap %.2fx): dense attention tensors",
				metrics.HarmonicMean(gaps["Transformer"])),
			"keep the full memory-centric advantage.",
		}}},
	}
}
