package core

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"baywatch/internal/stats"
)

// bitsEqual is reflect.DeepEqual with floats compared by their bits, so
// Results holding NaNs can be compared and a lost sign or payload shows.
func bitsEqual(a, b *Result) bool {
	return sameBits(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// oddResult exercises what the detector rarely produces: non-finite and
// signed-zero floats, a NaN payload, a GMM without a Best model, Kept in an
// order other than Candidates', and two bit-identical candidates.
func oddResult() *Result {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cs := []Candidate{
		{Origin: OriginPeriodogram, Bin: 7, Frequency: 0.5, Period: 2, Power: math.Inf(1), PValue: 1, Reason: RejectTTest},
		{Origin: OriginGMM, Period: 60, RefinedPeriod: 61, PValue: nan, ACFScore: 0.4, Renewal: true},
		{Origin: OriginGMM, Period: 60, RefinedPeriod: 61, PValue: nan, ACFScore: 0.4, Renewal: true},
		{Origin: Origin(-3), Bin: -1, Frequency: math.Copysign(0, -1), Period: math.Inf(-1), ACFScore: 0.9},
	}
	return &Result{
		Periodic:       true,
		Candidates:     cs,
		Kept:           []Candidate{cs[3], cs[2], cs[1]},
		PowerThreshold: math.Inf(1),
		SeriesLen:      1 << 17,
		EventCount:     12345,
		GMM:            &stats.GMMSelection{K: 2, BICs: []float64{nan, -1.5}},
	}
}

// TestResultCodecRoundTrip: every Result the detector produces over a
// varied corpus — periodic, rejected, undersampled, with and without a
// mixture model — decodes to a deeply equal value, consuming exactly the
// bytes written even with more after them.
func TestResultCodecRoundTrip(t *testing.T) {
	det := NewDetector(DefaultConfig())
	var results []*Result
	for _, as := range batchCorpus(t, 7, 60) {
		res, err := det.Detect(as)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var periodic, undersampled, mixtures, rejected int
	for i, res := range results {
		if res.Periodic {
			periodic++
		}
		if res.Undersampled {
			undersampled++
		}
		if res.GMM != nil {
			mixtures++
		}
		if len(res.Candidates) > len(res.Kept) {
			rejected++
		}
		enc, err := AppendResult([]byte("prefix"), res)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		enc = append(enc, "suffix"...)
		got, n, err := DecodeResult(enc[len("prefix"):])
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if want := len(enc) - len("prefix") - len("suffix"); n != want {
			t.Fatalf("result %d: decode took %d bytes, want %d", i, n, want)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("result %d: round trip diverged:\n got %+v\nwant %+v", i, got, res)
		}
	}
	if periodic == 0 || undersampled == 0 || mixtures == 0 || rejected == 0 {
		t.Fatalf("corpus too tame: %d periodic, %d undersampled, %d with a GMM, %d with rejected candidates",
			periodic, undersampled, mixtures, rejected)
	}

	odd := oddResult()
	enc, err := AppendResult(nil, odd)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeResult(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("odd result: decode took %d of %d bytes, err %v", n, len(enc), err)
	}
	if !bitsEqual(got, odd) {
		t.Fatalf("odd result: round trip diverged:\n got %+v\nwant %+v", got, odd)
	}
	if bits := math.Float64bits(got.Candidates[1].PValue); bits != 0x7ff8_0000_dead_beef {
		t.Errorf("NaN payload came back as %#x", bits)
	}
	if !math.Signbit(got.Candidates[3].Frequency) {
		t.Error("negative zero lost its sign")
	}
	if got.GMM == nil || got.GMM.Best != nil {
		t.Errorf("GMM without a Best model came back as %+v", got.GMM)
	}
	if got.Kept[0] != odd.Candidates[3] {
		t.Errorf("Kept order changed: first is %+v", got.Kept[0])
	}

	// An empty Result is all zero counts: every slice stays nil.
	got, _, err = DecodeResult(mustEncode(t, &Result{}))
	if err != nil || !reflect.DeepEqual(got, &Result{}) {
		t.Fatalf("empty result came back as %+v, err %v", got, err)
	}
}

func mustEncode(t testing.TB, r *Result) []byte {
	t.Helper()
	enc, err := AppendResult(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestResultCodecRejects: a Kept entry that is not a candidate cannot be
// encoded, and decode refuses every malformed shape with ErrResultCorrupt
// instead of sizing anything from it.
func TestResultCodecRejects(t *testing.T) {
	stray := &Result{Candidates: []Candidate{{Period: 1}}, Kept: []Candidate{{Period: 2}}}
	if _, err := AppendResult(nil, stray); err == nil {
		t.Error("a Kept entry outside Candidates encoded")
	}
	twice := &Result{Candidates: []Candidate{{Period: 1}}, Kept: []Candidate{{Period: 1}, {Period: 1}}}
	if _, err := AppendResult(nil, twice); err == nil {
		t.Error("one candidate kept twice encoded")
	}

	for name, in := range hostileResults(t) {
		got, n, err := DecodeResult(in)
		if !errors.Is(err, ErrResultCorrupt) || got != nil || n != 0 {
			t.Errorf("%s: decode = (%v, %d, %v), want ErrResultCorrupt", name, got, n, err)
		}
	}
	enc := mustEncode(t, oddResult())
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeResult(enc[:cut]); !errors.Is(err, ErrResultCorrupt) {
			t.Fatalf("encoding cut at byte %d of %d decoded (err %v)", cut, len(enc), err)
		}
	}
}

// hostileResults are encodings whose counts, indices or flags lie.
func hostileResults(t testing.TB) map[string][]byte {
	head := func(flags byte) []byte {
		b := []byte{flags, 0, 0}
		return binary.LittleEndian.AppendUint64(b, 0) // SeriesLen, EventCount, PowerThreshold
	}
	one := mustEncode(t, &Result{Candidates: []Candidate{{Period: 1}}, Kept: []Candidate{{Period: 1}}})
	keptAt := len(one) - 1 // the single Kept index, last byte of a GMM-less result
	out := map[string][]byte{
		"empty":               nil,
		"unknown flag":        head(0x80),
		"best without a GMM":  append(head(flagGMMBest), 0, 0),
		"2^60 candidates":     binary.AppendUvarint(head(0), 1<<60),
		"candidates past end": append(binary.AppendUvarint(head(0), 3), make([]byte, 2*candidateMinLen)...),
		"2^40 kept":           binary.AppendUvarint(append(head(0), 0), 1<<40),
		"kept of nothing":     append(head(0), 0, 1, 0),
		"2^50 BICs":           binary.AppendUvarint(append(head(flagGMM), 0, 0, 2), 1<<50),
		"2^50 GMM weights":    binary.AppendUvarint(append(head(flagGMM|flagGMMBest), 0, 0, 2, 0), 1<<50),
	}
	for name, idx := range map[string]byte{"kept index out of range": 1, "kept index huge": 0xFF} {
		bad := append([]byte(nil), one...)
		bad[keptAt] = idx
		out[name] = bad
	}
	renewal := append([]byte(nil), one...)
	renewal[len(head(0))+1+3] = 2 // count byte, three varints, then the Renewal flag
	out["renewal flag 2"] = renewal
	dup := mustEncode(t, &Result{
		Candidates: []Candidate{{Period: 1}, {Period: 2}},
		Kept:       []Candidate{{Period: 1}, {Period: 2}},
	})
	dup[len(dup)-1] = 0 // both Kept entries name candidate 0
	out["kept index twice"] = dup
	return out
}

// FuzzResultCodec: decoding arbitrary bytes never panics and never
// allocates more than a small multiple of its input, and whatever decodes
// re-encodes to something that decodes to the same value.
func FuzzResultCodec(f *testing.F) {
	f.Add(mustEncode(f, oddResult()))
	f.Add(mustEncode(f, &Result{Undersampled: true, SeriesLen: 3, EventCount: 2}))
	for _, in := range hostileResults(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, n, err := DecodeResult(in)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(in)+64<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(in), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrResultCorrupt) || res != nil || n != 0 {
				t.Fatalf("failed decode returned (%v, %d, %v)", res, n, err)
			}
			return
		}
		if n <= 0 || n > len(in) {
			t.Fatalf("decode took %d of %d bytes", n, len(in))
		}
		enc, err := AppendResult(nil, res)
		if err != nil {
			t.Fatalf("a decoded result does not encode: %v", err)
		}
		again, m, err := DecodeResult(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decode took %d of %d bytes, err %v", m, len(enc), err)
		}
		if !bitsEqual(again, res) {
			t.Fatalf("encode∘decode is not the identity:\n got %+v\nwant %+v", again, res)
		}
	})
}
