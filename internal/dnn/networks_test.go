package dnn

import (
	"testing"
	"testing/quick"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g := MustBuild(name, 64)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTableIIIMajorLayerCounts(t *testing.T) {
	// Canonical published layer counts. ResNet-34's structural count
	// includes the three projection-shortcut convolutions (33+3 convs + fc).
	cases := []struct {
		name  string
		major int
	}{
		{"AlexNet", 8},
		{"GoogLeNet", 58},
		{"VGG-E", 19},
		{"ResNet", 37},
		{"RNN-GEMV", 50},
		{"RNN-LSTM-1", 25},
		{"RNN-LSTM-2", 25},
		{"RNN-GRU", 187},
	}
	for _, c := range cases {
		g := MustBuild(c.name, 16)
		if got := g.MajorLayers(); got != c.major {
			t.Errorf("%s: major layers = %d, want %d", c.name, got, c.major)
		}
	}
}

func TestPaperLayerCounts(t *testing.T) {
	want := map[string]int{
		"AlexNet": 8, "GoogLeNet": 58, "VGG-E": 19, "ResNet": 34,
		"RNN-GEMV": 50, "RNN-LSTM-1": 25, "RNN-LSTM-2": 25, "RNN-GRU": 187,
	}
	for name, n := range want {
		if got := PaperLayerCount(name); got != n {
			t.Errorf("PaperLayerCount(%s) = %d, want %d", name, got, n)
		}
	}
	if PaperLayerCount("nope") != 0 {
		t.Error("unknown benchmark should report 0 layers")
	}
}

func TestRNNTimesteps(t *testing.T) {
	want := map[string]int{"RNN-GEMV": 50, "RNN-LSTM-1": 25, "RNN-LSTM-2": 25, "RNN-GRU": 187}
	for name, ts := range want {
		g := MustBuild(name, 8)
		if g.Timesteps != ts {
			t.Errorf("%s: timesteps = %d, want %d", name, g.Timesteps, ts)
		}
	}
}

// weightGroupBytes derives the model's unique parameter groups and their
// byte sizes by group name, each at its first reader: the oracle the
// builder's GroupLead marks and TotalWeightBytes are checked against.
func weightGroupBytes(g *Graph) map[string]int64 {
	groups := make(map[string]int64)
	for _, l := range g.Layers {
		if l.WeightGroup == "" {
			continue
		}
		if _, seen := groups[l.WeightGroup]; !seen {
			groups[l.WeightGroup] = l.WeightBytes()
		}
	}
	return groups
}

// TestGroupLeadsAreFirstReaders: on every network, exactly the first layer
// to read each weight group is its lead, and TotalWeightBytes sums the
// groups weightGroupBytes derives by name.
func TestGroupLeadsAreFirstReaders(t *testing.T) {
	for _, name := range append(append(BenchmarkNames(), TransformerNames()...), "DenseNet-121") {
		g := MustBuild(name, 2)
		seen := map[string]bool{}
		for _, l := range g.Layers {
			first := l.WeightGroup != "" && !seen[l.WeightGroup]
			seen[l.WeightGroup] = true
			if l.GroupLead() != first {
				t.Errorf("%s: layer %s lead = %v, first reader of %q = %v", name, l.Name, l.GroupLead(), l.WeightGroup, first)
			}
		}
		var want int64
		for _, b := range weightGroupBytes(g) {
			want += b
		}
		if got := g.TotalWeightBytes(); got != want {
			t.Errorf("%s: TotalWeightBytes = %d, groups sum to %d", name, got, want)
		}
	}
}

func TestAlexNetParameterCount(t *testing.T) {
	// AlexNet has ≈61 M parameters (single-tower dims: 60.97 M).
	g := MustBuild("AlexNet", 1)
	var params int64
	for group, bytes := range weightGroupBytes(g) {
		if bytes <= 0 {
			t.Errorf("group %s has nonpositive size", group)
		}
		params += bytes / ElemBytes
	}
	if params < 60e6 || params > 63e6 {
		t.Fatalf("AlexNet parameter count = %d, want ≈61 M", params)
	}
}

func TestVGGParameterCount(t *testing.T) {
	// VGG-19 has ≈143.7 M parameters.
	g := MustBuild("VGG-E", 1)
	params := g.TotalWeightBytes() / ElemBytes
	if params < 140e6 || params > 147e6 {
		t.Fatalf("VGG-E parameter count = %d, want ≈144 M", params)
	}
}

func TestGoogLeNetParameterCount(t *testing.T) {
	// GoogLeNet v1 has ≈7 M (6.99 M) parameters.
	g := MustBuild("GoogLeNet", 1)
	params := g.TotalWeightBytes() / ElemBytes
	if params < 5.9e6 || params > 7.5e6 {
		t.Fatalf("GoogLeNet parameter count = %d, want ≈7 M", params)
	}
}

func TestResNet34ParameterCount(t *testing.T) {
	// ResNet-34 has ≈21.8 M parameters.
	g := MustBuild("ResNet", 1)
	params := g.TotalWeightBytes() / ElemBytes
	if params < 21e6 || params > 23e6 {
		t.Fatalf("ResNet-34 parameter count = %d, want ≈21.8 M", params)
	}
}

func TestVGGMACCount(t *testing.T) {
	// VGG-19 forward pass ≈19.6 GMACs per image (conv+fc).
	g := MustBuild("VGG-E", 1)
	macs := g.TotalMACs()
	if macs < 18.5e9 || macs > 21.0e9 {
		t.Fatalf("VGG-E MACs = %d, want ≈19.6 G", macs)
	}
}

func TestResNetMACCount(t *testing.T) {
	// ResNet-34 forward ≈3.66 GMACs per image.
	g := MustBuild("ResNet", 1)
	macs := g.TotalMACs()
	if macs < 3.4e9 || macs > 4.0e9 {
		t.Fatalf("ResNet-34 MACs = %d, want ≈3.66 G", macs)
	}
}

func TestLSTMWeightSize(t *testing.T) {
	// LSTM with hidden h and input h: 4 gates × (2h·h) weights = 8h².
	g := MustBuild("RNN-LSTM-2", 4)
	h := int64(8192)
	want := 8 * h * h * ElemBytes
	if got := g.TotalWeightBytes(); got != want {
		t.Fatalf("LSTM-2 weight bytes = %d, want %d", got, want)
	}
}

func TestRecurrentWeightsSharedAcrossTimesteps(t *testing.T) {
	g := MustBuild("RNN-GRU", 4)
	groups := weightGroupBytes(g)
	if len(groups) != 1 {
		t.Fatalf("GRU weight groups = %d, want 1 shared group", len(groups))
	}
	// Per-execution weight traffic is the full matrix every timestep.
	cells := 0
	for _, l := range g.Layers {
		if l.Kind == GRUCell {
			cells++
			if l.WeightBytes() != 6*2816*2816*ElemBytes {
				t.Fatalf("GRU cell weight bytes = %d", l.WeightBytes())
			}
		}
	}
	if cells != 187 {
		t.Fatalf("GRU cells = %d, want 187", cells)
	}
}

func TestFeatureMapsScaleLinearlyWithBatch(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g1 := MustBuild(name, 16)
		g2 := MustBuild(name, 32)
		if g2.TotalFeatureMapBytes() != 2*g1.TotalFeatureMapBytes() {
			t.Errorf("%s: feature maps do not scale linearly with batch", name)
		}
		if g2.TotalWeightBytes() != g1.TotalWeightBytes() {
			t.Errorf("%s: weights must not scale with batch", name)
		}
	}
}

func TestAlexNetShapes(t *testing.T) {
	g := MustBuild("AlexNet", 2)
	byName := map[string]*Layer{}
	for _, l := range g.Layers {
		byName[l.Name] = l
	}
	cases := []struct {
		name string
		want Shape
	}{
		{"conv1", Shape{2, 96, 55, 55}},
		{"pool1", Shape{2, 96, 27, 27}},
		{"conv2", Shape{2, 256, 27, 27}},
		{"pool2", Shape{2, 256, 13, 13}},
		{"conv5", Shape{2, 256, 13, 13}},
		{"pool5", Shape{2, 256, 6, 6}},
		{"fc6", MakeVec(2, 4096)},
		{"fc8", MakeVec(2, 1000)},
	}
	for _, c := range cases {
		l, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing layer %s", c.name)
		}
		if l.Out != c.want {
			t.Errorf("%s shape = %v, want %v", c.name, l.Out, c.want)
		}
	}
}

func TestGoogLeNetConcatChannels(t *testing.T) {
	g := MustBuild("GoogLeNet", 1)
	wantC := map[string]int{
		"inception_3a/output": 256,
		"inception_3b/output": 480,
		"inception_4a/output": 512,
		"inception_4e/output": 832,
		"inception_5b/output": 1024,
	}
	found := 0
	for _, l := range g.Layers {
		if c, ok := wantC[l.Name]; ok {
			found++
			if l.Out.C != c {
				t.Errorf("%s channels = %d, want %d", l.Name, l.Out.C, c)
			}
		}
	}
	if found != len(wantC) {
		t.Fatalf("found %d/%d inception outputs", found, len(wantC))
	}
}

func TestResNetShortcutsAreDAGEdges(t *testing.T) {
	g := MustBuild("ResNet", 1)
	// Every Add layer must have exactly two producers, and at least one
	// producer's output must be consumed again later than its own index
	// (the residual reuse that stresses the reuse-distance analysis).
	adds := 0
	for _, l := range g.Layers {
		if l.Kind == Add {
			adds++
			if len(l.Inputs) != 2 {
				t.Fatalf("add layer %s has %d inputs", l.Name, len(l.Inputs))
			}
		}
	}
	if adds != 16 {
		t.Fatalf("ResNet-34 add layers = %d, want 16", adds)
	}
	last := g.LastForwardUse()
	stretched := 0
	for id, lu := range last {
		if lu > id+1 {
			stretched++
		}
	}
	if stretched == 0 {
		t.Fatal("no tensor has reuse distance > 1; shortcuts not wired")
	}
}

func TestStashExcludesCheapLayers(t *testing.T) {
	// Stash must be strictly smaller than total feature maps: cheap layers'
	// outputs that feed only cheap layers are recomputed, not stashed.
	// (Recurrent stashes legitimately exceed the layer-output sum because
	// gate activations are internal state, so only CNNs are checked.)
	for _, name := range CNNNames() {
		g := MustBuild(name, 8)
		if s, f := g.StashBytes(), g.TotalFeatureMapBytes(); s >= f {
			t.Errorf("%s: stash %d ≥ feature maps %d", name, s, f)
		}
	}
}

func TestBuildUnknownName(t *testing.T) {
	if _, err := Build("LeNet", 4); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestMustBuildPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBuild("LeNet", 4)
}

// Property: for any batch size, MACs scale linearly with batch for every
// benchmark (each forward GEMM has M proportional to N or fixed-size weights
// applied per sample).
func TestPropertyMACsLinearInBatch(t *testing.T) {
	f := func(raw uint8) bool {
		batch := int(raw%32) + 1
		for _, name := range []string{"AlexNet", "RNN-LSTM-1"} {
			g1 := MustBuild(name, batch)
			g2 := MustBuild(name, 2*batch)
			if g2.TotalMACs() != 2*g1.TotalMACs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for impossible conv geometry")
		}
	}()
	b := NewBuilder("bad", 1)
	in := b.Input(3, 4, 4)
	b.Conv("huge", in, 8, 9, 1, 0)
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for concat shape mismatch")
		}
	}()
	b := NewBuilder("bad", 1)
	in := b.Input(3, 8, 8)
	a := b.Conv("a", in, 4, 3, 1, 1) // 8×8
	c := b.Conv("c", in, 4, 3, 2, 1) // 4×4
	b.Concat("x", a, c)
}

func TestGraphSummaryMentionsName(t *testing.T) {
	g := MustBuild("VGG-E", 4)
	if s := g.Summary(); len(s) == 0 || s[:5] != "VGG-E" {
		t.Fatalf("summary = %q", s)
	}
}
