package prof

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
)

// FuzzReadPprof checks the pprof decoder on arbitrary bytes: it never
// panics; an accepted profile holds no more samples, stack frames or
// values than its decompressed bytes (each needs at least one), so
// nothing was allocated from a length prefix alone; and every sample
// carries one value per sample type.
func FuzzReadPprof(f *testing.F) {
	golden := goldenPprof(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	var small bytes.Buffer
	p := New()
	p.Ledger(Scope{Experiment: "x", Node: "n"}).AddStep(BinDead, 0.5, 0)
	if err := WritePprof(&small, p); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Fuzz(checkDecode)
}

// FuzzPprofRoundTrip reads its bytes as float64s folded into [0, 100)
// and fills a three-scope ledger profile with them: WritePprof followed
// by ReadPprof must return totals equal to the quantised per-bin sums.
// It is a separate target from FuzzReadPprof because a WritePprof costs
// about a hundred decodes, which would stall minimising the big seeds.
func FuzzPprofRoundTrip(f *testing.F) {
	f.Add(goldenPprof(f)[:8*roundTripScopes*NumBins*2]) // only that much is read
	f.Add([]byte{})
	var seed []byte
	for _, v := range []float64{0.5, 1e-3, 99.999, 1e-16, 0, math.MaxFloat64, math.Inf(1), math.NaN()} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(checkRoundTrip)
}

// goldenPprof returns the ext-fleet golden profile, a WritePprof export.
func goldenPprof(f *testing.F) []byte {
	golden, err := os.ReadFile("../expt/testdata/golden_ext-fleet.pb.gz")
	if err != nil {
		f.Fatal(err)
	}
	return golden
}

// checkDecode applies the decoder properties to one input.
func checkDecode(t *testing.T, data []byte) {
	d, err := ReadPprof(bytes.NewReader(data))
	if err != nil {
		return // refusal is always fine
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadPprof accepted bytes gzip refuses: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("ReadPprof accepted bytes gzip cannot read: %v", err)
	}
	elems := len(d.Samples) + len(d.SampleTypes)
	for i, s := range d.Samples {
		if len(s.Values) != len(d.SampleTypes) {
			t.Fatalf("sample %d has %d values for %d sample types", i, len(s.Values), len(d.SampleTypes))
		}
		elems += len(s.Stack) + len(s.Values) + len(s.Labels)
	}
	if elems > len(raw) {
		t.Fatalf("decoded %d elements from %d protobuf bytes", elems, len(raw))
	}
}

// roundTripScopes is how many node scopes checkRoundTrip fills.
const roundTripScopes = 3

// checkRoundTrip builds a profile from data and requires the exported
// totals to equal the quantised per-bin sums.
func checkRoundTrip(t *testing.T, data []byte) {
	p := New()
	var wantNS, wantFJ int64
	for k := 0; k < roundTripScopes*NumBins*2 && 8*(k+1) <= len(data); k++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		// [0, 100) keeps 30 femtojoule totals inside int64.
		v = math.Mod(math.Abs(v), 100)
		led := p.Ledger(Scope{Experiment: "fuzz", Node: fmt.Sprintf("node/%d", k/(2*NumBins))})
		b := Bin(k / 2 % NumBins)
		if k%2 == 0 {
			led.Seconds[b] = v
			wantNS += int64(math.Round(v / secondsPerUnit))
		} else {
			led.Joules[b] = v
			wantFJ += int64(math.Round(v / joulesPerUnit))
		}
	}
	var buf bytes.Buffer
	if err := WritePprof(&buf, p); err != nil {
		t.Fatal(err)
	}
	d, err := ReadPprof(&buf)
	if err != nil {
		t.Fatalf("ReadPprof(WritePprof(p)): %v", err)
	}
	if got := d.Total(0); got != wantNS {
		t.Errorf("sim_seconds total %d ns, want %d", got, wantNS)
	}
	if got := d.Total(1); got != wantFJ {
		t.Errorf("energy_joules total %d fJ, want %d", got, wantFJ)
	}
}

// TestReadPprofValueCount: a sample whose value count differs from the
// number of sample types is malformed, not silently accepted.
func TestReadPprofValueCount(t *testing.T) {
	encode := func(values []int64) []byte {
		var out pbuf
		for _, ty := range []int64{1, 2} {
			var vt pbuf
			vt.intField(vtType, ty)
			out.bytesField(profSampleType, vt.b)
		}
		var sample pbuf
		sample.packedInts(sampleValue, values)
		out.bytesField(profSample, sample.b)
		for _, s := range []string{"", "a", "b"} {
			out.stringField(profStringTable, s)
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(out.b)
		zw.Close()
		return buf.Bytes()
	}
	if _, err := ReadPprof(bytes.NewReader(encode([]int64{1, 2}))); err != nil {
		t.Fatalf("two values for two sample types refused: %v", err)
	}
	for _, values := range [][]int64{{1}, {1, 2, 3}} {
		if _, err := ReadPprof(bytes.NewReader(encode(values))); err == nil {
			t.Errorf("%d values for two sample types accepted", len(values))
		}
	}
}
