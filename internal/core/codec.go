package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"baywatch/internal/stats"
)

// ResultCodecRevision versions what a stored Result means: the byte layout
// AppendResult writes AND the detector arithmetic that produced the
// values in it. Anything that stores encoded results keys them on it (the
// daemon's detection fingerprint), so bumping it makes old bytes unusable
// rather than misread — and makes results computed by an older detector be
// re-derived rather than adopted. Bump it whenever either changes.
//
// Revision 2: every spectrum is taken on the zero-padded power-of-two
// grid, and the GMM E-step is reassociated (last-bit differences).
// Revision 3: step 3's ACF is summed over nonzero bins at the lags it
// tests instead of taken by FFT, and EM runs over distinct interval values
// (last-bit differences; exact ties between ACF lags now go to the lower
// lag).
// Revision 4: the permutation null runs on a radix-4 kernel with a paired
// unpack and centres every shuffle by one mean (last-bit differences).
const ResultCodecRevision = 4

// ErrResultCorrupt is wrapped by every DecodeResult failure.
var ErrResultCorrupt = errors.New("core: malformed encoded result")

// The encoding of a Result (uvarint counts, zig-zag varint integers,
// floats as their raw IEEE bits, little-endian — NaN payloads, infinities
// and negative zero survive):
//
//	flags u8                       Periodic | Undersampled | GMM | GMM.Best
//	SeriesLen, EventCount          varint
//	PowerThreshold                 f64
//	Candidates   n × (Origin, Bin, Reason varint; Renewal u8; Frequency,
//	                  Period, RefinedPeriod, Power, PValue, ACFScore f64)
//	Kept         n × index into Candidates, in Kept's order
//	GMM          K varint; BICs n × f64            — when flagged
//	GMM.Best     Weights, Means, StdDevs n × f64;  — when flagged
//	             LogLikelihood, BIC f64; Iterations varint
//
// A slice of length zero is written as a zero count and decodes as nil:
// the detector builds every slice by appending to nil, so its results
// round-trip to reflect.DeepEqual (the gob convention
// timeseries.FromTimestamps documents).
const (
	flagPeriodic = 1 << iota
	flagUndersampled
	flagGMM
	flagGMMBest
	flagsKnown = flagPeriodic | flagUndersampled | flagGMM | flagGMMBest
)

// candidateMinLen is the fewest bytes one encoded Candidate takes: three
// one-byte varints, the Renewal byte and six floats.
const candidateMinLen = 3 + 1 + 6*8

// AppendResult appends r's encoding to buf. It fails only for a Result
// whose Kept is not drawn from its Candidates, which the detector never
// produces.
func AppendResult(buf []byte, r *Result) ([]byte, error) {
	var flags byte
	if r.Periodic {
		flags |= flagPeriodic
	}
	if r.Undersampled {
		flags |= flagUndersampled
	}
	if r.GMM != nil {
		flags |= flagGMM
		if r.GMM.Best != nil {
			flags |= flagGMMBest
		}
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(r.SeriesLen))
	buf = binary.AppendVarint(buf, int64(r.EventCount))
	buf = appendFloat(buf, r.PowerThreshold)

	buf = binary.AppendUvarint(buf, uint64(len(r.Candidates)))
	for i := range r.Candidates {
		c := &r.Candidates[i]
		buf = binary.AppendVarint(buf, int64(c.Origin))
		buf = binary.AppendVarint(buf, int64(c.Bin))
		buf = binary.AppendVarint(buf, int64(c.Reason))
		if c.Renewal {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, f := range c.floats() {
			buf = appendFloat(buf, f)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(r.Kept)))
	used := make([]bool, len(r.Candidates))
	for i := range r.Kept {
		at := -1
		for j := range r.Candidates {
			if !used[j] && sameCandidate(&r.Kept[i], &r.Candidates[j]) {
				at = j
				break
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("core: encode result: Kept[%d] is not one of its Candidates", i)
		}
		used[at] = true
		buf = binary.AppendUvarint(buf, uint64(at))
	}

	if g := r.GMM; g != nil {
		buf = binary.AppendVarint(buf, int64(g.K))
		buf = appendFloats(buf, g.BICs)
		if b := g.Best; b != nil {
			buf = appendFloats(buf, b.Weights)
			buf = appendFloats(buf, b.Means)
			buf = appendFloats(buf, b.StdDevs)
			buf = appendFloat(buf, b.LogLikelihood)
			buf = appendFloat(buf, b.BIC)
			buf = binary.AppendVarint(buf, int64(b.Iterations))
		}
	}
	return buf, nil
}

// floats lists the candidate's float fields in encoding order.
func (c *Candidate) floats() [6]float64 {
	return [6]float64{c.Frequency, c.Period, c.RefinedPeriod, c.Power, c.PValue, c.ACFScore}
}

// sameCandidate compares bit for bit, so a NaN field equals itself.
func sameCandidate(a, b *Candidate) bool {
	if a.Origin != b.Origin || a.Bin != b.Bin || a.Reason != b.Reason || a.Renewal != b.Renewal {
		return false
	}
	af, bf := a.floats(), b.floats()
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return true
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendFloats(buf []byte, fs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fs)))
	for _, f := range fs {
		buf = appendFloat(buf, f)
	}
	return buf
}

// resultReader decodes an encoded Result. The first malformed field
// latches err and every later read returns zero; every count is checked
// against the bytes still unread before anything is allocated from it.
type resultReader struct {
	buf []byte
	err error
}

func (r *resultReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrResultCorrupt, what)
	}
	r.buf = nil
}

func (r *resultReader) byte() byte {
	if len(r.buf) == 0 {
		r.fail("truncated")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *resultReader) int() int {
	v, n := binary.Varint(r.buf)
	if n <= 0 || int64(int(v)) != v {
		r.fail("bad integer")
		return 0
	}
	r.buf = r.buf[n:]
	return int(v)
}

// count reads an element count for elements of at least elemLen bytes.
func (r *resultReader) count(elemLen int) int {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad count")
		return 0
	}
	r.buf = r.buf[n:]
	if v > uint64(len(r.buf)/elemLen) {
		r.fail("count exceeds the bytes present")
		return 0
	}
	return int(v)
}

func (r *resultReader) float() float64 {
	if len(r.buf) < 8 {
		r.fail("truncated")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

func (r *resultReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

// DecodeResult decodes the Result at the start of data and reports how
// many bytes it took. Errors wrap ErrResultCorrupt.
func DecodeResult(data []byte) (*Result, int, error) {
	r := &resultReader{buf: data}
	flags := r.byte()
	if flags&^flagsKnown != 0 || (flags&flagGMMBest != 0 && flags&flagGMM == 0) {
		r.fail("unknown flags")
	}
	res := &Result{
		Periodic:     flags&flagPeriodic != 0,
		Undersampled: flags&flagUndersampled != 0,
		SeriesLen:    r.int(),
		EventCount:   r.int(),
	}
	res.PowerThreshold = r.float()

	if n := r.count(candidateMinLen); n > 0 {
		res.Candidates = make([]Candidate, n)
		for i := range res.Candidates {
			c := &res.Candidates[i]
			c.Origin, c.Bin, c.Reason = Origin(r.int()), r.int(), RejectReason(r.int())
			switch r.byte() {
			case 0:
			case 1:
				c.Renewal = true
			default:
				r.fail("bad Renewal flag")
			}
			c.Frequency, c.Period, c.RefinedPeriod = r.float(), r.float(), r.float()
			c.Power, c.PValue, c.ACFScore = r.float(), r.float(), r.float()
		}
	}

	// Kept holds distinct candidates, so it is never longer than Candidates.
	if n := r.count(1); n > len(res.Candidates) {
		r.fail("more Kept entries than Candidates")
	} else if n > 0 {
		res.Kept = make([]Candidate, n)
		used := make([]bool, len(res.Candidates))
		for i := range res.Kept {
			at, w := binary.Uvarint(r.buf)
			if w <= 0 || at >= uint64(len(used)) || used[at] {
				r.fail("bad Kept index")
				break
			}
			r.buf = r.buf[w:]
			used[at] = true
			res.Kept[i] = res.Candidates[at]
		}
	}

	if flags&flagGMM != 0 {
		g := &stats.GMMSelection{K: r.int(), BICs: r.floats()}
		if flags&flagGMMBest != 0 {
			g.Best = &stats.GMM{Weights: r.floats(), Means: r.floats(), StdDevs: r.floats()}
			g.Best.LogLikelihood, g.Best.BIC = r.float(), r.float()
			g.Best.Iterations = r.int()
		}
		res.GMM = g
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return res, len(data) - len(r.buf), nil
}
