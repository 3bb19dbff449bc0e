package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/memcentric/mcdla/internal/units"
)

// fillCorpus returns FuzzChannelFill's seed corpus: its added seeds, then
// the committed inputs under testdata/fuzz.
func fillCorpus(t *testing.T) [][]byte {
	t.Helper()
	corpus := fillSeeds()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzChannelFill", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// A committed input is a version line and one []byte("…") value.
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		lit, ok := bytes.CutPrefix(lines[len(lines)-1], []byte("[]byte("))
		if len(lines) != 2 || !ok {
			t.Fatalf("%s: want one []byte value", name)
		}
		data, err := strconv.Unquote(string(bytes.TrimSuffix(lit, []byte(")"))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, []byte(data))
	}
	return corpus
}

// replayFill runs a decoded schedule on its channel: the starts, a
// staggered one halfway to the next completion, then one Drain or one
// completion at a time. It returns every flow's completion stamp and the
// channel's statistics.
func replayFill(ch *Channel, run fillRun) ([]units.Time, ChannelStats) {
	if run.late {
		ch.AdvanceTo(lateClock)
	}
	var flows []Flow
	for _, s := range run.starts {
		at := ch.now
		if s.staggered && ch.inFlight > 0 {
			at += ch.nextCompletionDelta() / 2
		}
		flows = append(flows, ch.Start(at, s.group, s.size, s.extra, s.pri))
	}
	if run.drain {
		ch.Drain(ch.now)
	}
	for ch.inFlight > 0 {
		ch.advanceToNextCompletion()
	}
	stamps := make([]units.Time, len(flows))
	for i, f := range flows {
		stamps[i] = f.DoneAt()
	}
	return stamps, ch.Stats()
}

// reusedChannel replays dirty on a pooled channel, releases it, and
// returns a NewChannel that came back from the pool with tables. Under
// -race the pool drops a random share of what it is given, so it tries
// again until one does.
func reusedChannel(dirty []byte) (func(string, units.Bandwidth) *Channel, error) {
	for range 100 {
		d, run := decodeChannel(dirty, NewChannel)
		replayFill(d, run)
		d.Release()
		c := NewChannel("fill", 1)
		if cap(c.stamps) == 0 {
			continue // a new channel, not a released one
		}
		got := *c
		if n := len(got.groups) + len(got.stamps) + len(got.topFill.caps) + len(got.topFill.out) + len(got.topFill.order); n != 0 {
			return nil, fmt.Errorf("released channel came back with %d table entries", n)
		}
		got.groups, got.stamps, got.topFill = nil, nil, fillScratch{}
		if want := (Channel{name: "fill", capacity: 1}); !reflect.DeepEqual(got, want) {
			return nil, fmt.Errorf("released channel came back as %+v, a fresh one is %+v", got, want)
		}
		return func(name string, capacity units.Bandwidth) *Channel {
			c.name, c.capacity = name, capacity
			return c
		}, nil
	}
	return nil, fmt.Errorf("no released channel came back from the pool in 100 tries")
}

// TestReleasedChannelReplaysFresh replays FuzzChannelFill's seed corpus on
// a channel that never came from the pool and on one that a dirty
// channel's Release put there, dirtied by the corpus entry before it, and
// requires the same stamps and ChannelStats to the bit. Two goroutines
// share the corpus, so the pool serves both at once.
func TestReleasedChannelReplaysFresh(t *testing.T) {
	corpus := fillCorpus(t)
	errs := make([]error, len(corpus))
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(corpus); i += 2 {
				errs[i] = replayReused(corpus[i], corpus[(i+len(corpus)-1)%len(corpus)])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("corpus entry %d: %v", i, err)
		}
	}
}

// replayReused replays data on a fresh channel and on a reused one that
// dirty's replay released, and compares the two.
func replayReused(data, dirty []byte) error {
	fresh := func(name string, capacity units.Bandwidth) *Channel {
		return &Channel{name: name, capacity: capacity}
	}
	reused, err := reusedChannel(dirty)
	if err != nil {
		return err
	}
	wantStamps, wantStats := replayFill(decodeChannel(data, fresh))
	gotStamps, gotStats := replayFill(decodeChannel(data, reused))
	if len(gotStamps) != len(wantStamps) {
		return fmt.Errorf("%d flows on the reused channel, %d on a fresh one", len(gotStamps), len(wantStamps))
	}
	for i := range wantStamps {
		if !same(float64(gotStamps[i]), float64(wantStamps[i])) {
			return fmt.Errorf("flow %d completed at %v on the reused channel, %v on a fresh one", i, gotStamps[i], wantStamps[i])
		}
	}
	if gotStats != wantStats {
		return fmt.Errorf("reused channel stats %+v, fresh %+v", gotStats, wantStats)
	}
	return nil
}
