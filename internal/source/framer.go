package source

import "bytes"

// maxLineBytes is the longest line a streaming connector keeps (the
// follower's MaxLineBytes default, and the socket's fixed bound): a longer
// line is discarded up to its newline and counted once as skipped, so one
// producer that never sends a newline cannot grow the heap without limit.
const maxLineBytes = 1 << 20

// cutLine splits data at its first newline: line is what precedes it,
// rest what follows, and found reports whether there was one (when not,
// line is all of data).
func cutLine(data []byte) (line, rest []byte, found bool) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:], true
	}
	return data, nil, false
}

// lineFramer cuts a byte stream that arrives in arbitrary chunks into
// complete lines and parses each into events. The unterminated tail of a
// chunk waits in pending for the next one. A line longer than max bytes is
// counted skipped once and dropped up to its newline, wherever the chunk
// boundaries fall, and pending never holds more than max bytes. A
// connector owns one and uses it from one goroutine.
type lineFramer struct {
	max        int
	pending    []byte
	discarding bool // inside an overlong line, dropping until its newline
}

// scan appends the events of every line data completes to events and
// returns them with the number of lines skipped (malformed or overlong).
func (f *lineFramer) scan(data []byte, events []Event, p *lineParser) ([]Event, int) {
	skipped := 0
	for len(data) > 0 {
		line, rest, found := cutLine(data)
		data = rest
		switch {
		case f.discarding:
			// The tail of the overlong line, already counted.
			f.discarding = !found
		case len(f.pending)+len(line) > f.max:
			// Release the buffer too: nothing of the overlong line's size
			// stays behind.
			f.pending = nil
			f.discarding = !found
			skipped++
		case !found:
			f.pending = append(f.pending, line...)
		default:
			if len(f.pending) > 0 {
				line = append(f.pending, line...)
				f.pending = line[:0]
			}
			var skip int
			events, skip = p.appendLineEvents(events, line)
			skipped += skip
		}
	}
	return events, skipped
}

// flush ends the stream: the unterminated tail, if any, is parsed as the
// final line (the producer finished it, the newline never landed), and
// the framer is reset for the next stream.
func (f *lineFramer) flush(events []Event, p *lineParser) ([]Event, int) {
	events, skipped := p.appendLineEvents(events, f.pending)
	f.reset()
	return events, skipped
}

// reset forgets the unterminated tail without parsing it.
func (f *lineFramer) reset() {
	f.pending = f.pending[:0]
	f.discarding = false
}
