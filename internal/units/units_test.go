package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestByteMultiples(t *testing.T) {
	if KB != 1024 || MB != 1024*KB || GB != 1024*MB || TB != 1024*GB {
		t.Fatal("binary multiples wrong")
	}
}

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		512:               "512 B",
		2 * KB:            "2.00 KB",
		3 * MB:            "3.00 MB",
		GB + GB/2:         "1.50 GB",
		2 * TB:            "2.00 TB",
		Bytes(1):          "1 B",
		Bytes(1023):       "1023 B",
		Bytes(1024 + 512): "1.50 KB",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d bytes = %q, want %q", int64(b), got, want)
		}
	}
}

func TestBandwidthConversions(t *testing.T) {
	bw := GBps(25)
	if bw != 25e9 {
		t.Fatalf("GBps(25) = %v B/s", float64(bw))
	}
	if bw.GBps() != 25 {
		t.Fatalf("round trip = %g", bw.GBps())
	}
	if bw.String() != "25.0 GB/s" {
		t.Fatalf("string = %q", bw.String())
	}
}

func TestTimeConstructors(t *testing.T) {
	if Seconds(1) != 1 {
		t.Fatal("time constructor disagrees")
	}
	if Seconds(2).Microseconds() != 2e6 {
		t.Fatal("microseconds accessor wrong")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		Seconds(1.5):   "1.500 s",
		Time(2.25e-3):  "2.250 ms",
		Time(3.5e-6):   "3.500 us",
		Time(120e-9):   "120.0 ns",
		0:              "0 s",
		Seconds(-1.5):  "-1.500 s",
		Time(-2.25e-3): "-2.250 ms",
	}
	for tt, want := range cases {
		if got := tt.String(); got != want {
			t.Errorf("%g s = %q, want %q", float64(tt), got, want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	got := TransferTime(Bytes(32e9), GBps(16))
	if math.Abs(got.Seconds()-2) > 1e-12 {
		t.Fatalf("32 GB over 16 GB/s = %v, want 2 s", got)
	}
	if !math.IsInf(TransferTime(GB, 0).Seconds(), 1) {
		t.Fatal("zero bandwidth must yield +Inf (link absent)")
	}
	if !math.IsInf(TransferTime(GB, -1).Seconds(), 1) {
		t.Fatal("negative bandwidth must yield +Inf")
	}
	if TransferTime(0, GBps(1)) != 0 {
		t.Fatal("zero bytes must transfer instantly")
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Fatal("MaxTime wrong")
	}
	if MinTime(1, 2) != 1 || MinTime(2, 1) != 1 {
		t.Fatal("MinTime wrong")
	}
}

// Property: transfer time is additive over concatenated payloads and
// inversely proportional to bandwidth.
func TestPropertyTransferTimeLinear(t *testing.T) {
	f := func(aRaw, bRaw uint32, bwRaw uint16) bool {
		a, b := Bytes(aRaw), Bytes(bRaw)
		bw := GBps(float64(bwRaw%1000) + 1)
		sum := TransferTime(a, bw) + TransferTime(b, bw)
		joint := TransferTime(a+b, bw)
		if math.Abs(sum.Seconds()-joint.Seconds()) > 1e-12+1e-9*joint.Seconds() {
			return false
		}
		double := TransferTime(a, 2*bw)
		return math.Abs(2*double.Seconds()-TransferTime(a, bw).Seconds()) < 1e-12+1e-9*double.Seconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxTime/MinTime bracket their arguments.
func TestPropertyMinMaxBracket(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := MinTime(Time(a), Time(b)), MaxTime(Time(a), Time(b))
		return lo <= hi && (lo == Time(a) || lo == Time(b)) && (hi == Time(a) || hi == Time(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParsePositiveListsRejectNonFinite: the list parsers refuse every
// element that is not a positive finite number, naming the list.
func TestParsePositiveListsRejectNonFinite(t *testing.T) {
	for _, csv := range []string{"25,NaN", "Inf", "+Inf", "-Inf", "1e309", "0", "-1", "x"} {
		if _, err := ParsePositiveFloats("gbps", csv); err == nil || !strings.Contains(err.Error(), "gbps") {
			t.Errorf("ParsePositiveFloats(%q) error = %v, want one naming gbps", csv, err)
		}
	}
	for _, csv := range []string{"0", "-1", "1.5", "2x"} {
		if _, err := ParsePositiveInts("nodes", csv); err == nil || !strings.Contains(err.Error(), "nodes") {
			t.Errorf("ParsePositiveInts(%q) error = %v, want one naming nodes", csv, err)
		}
	}
	if got, err := ParsePositiveFloats("gbps", "25, 1e3"); err != nil || len(got) != 2 || got[1] != 1000 {
		t.Fatalf("ParsePositiveFloats = %v, %v", got, err)
	}
}
