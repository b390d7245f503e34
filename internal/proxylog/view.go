package proxylog

import "strconv"

// RecordView is a zero-copy view of one parsed log line: every textual
// field aliases the scanned line's bytes instead of owning a heap copy.
// Views are the streaming-ingest counterpart of Record — a shard scanner
// reuses one RecordView per worker, so the happy path performs no
// per-record allocation (see internal/ingest). A view is only valid until
// the underlying line buffer is reused; callers that keep a field must
// copy or intern it first.
type RecordView struct {
	// Timestamp is the request time in Unix seconds (field 2, the
	// authoritative epoch).
	Timestamp int64
	// ClientIP, Method, Scheme, Host, Path and UserAgent alias the line's
	// bytes; UserAgent is unquoted.
	ClientIP, Method, Scheme, Host, Path, UserAgent []byte
	// Status, BytesOut and BytesIn mirror Record's numeric fields.
	Status, BytesOut, BytesIn int
}

// Record materializes the view as an owning Record, copying every field.
func (v *RecordView) Record() *Record {
	return &Record{
		Timestamp: v.Timestamp,
		ClientIP:  string(v.ClientIP),
		Method:    string(v.Method),
		Scheme:    string(v.Scheme),
		Host:      string(v.Host),
		Path:      string(v.Path),
		Status:    v.Status,
		BytesOut:  v.BytesOut,
		BytesIn:   v.BytesIn,
		UserAgent: string(v.UserAgent),
	}
}

// ParseRecordView parses one log line into v without allocating: fields
// alias line's bytes. It accepts and rejects exactly the same lines as
// ParseRecord (FuzzParseRecordView asserts the equivalence); only the
// error detail differs — the view parser returns the bare ErrBadRecord
// sentinel so the hot path stays allocation-free on malformed input too
// (ForEachSplit re-parses a line it reports for the field-level detail).
//
//bw:noalloc per-line streaming-ingest hot path; fields alias the line buffer
func ParseRecordView(line []byte, v *RecordView) error {
	// Mirror strings.SplitN(line, " ", 12): 11 single-space splits, the
	// remainder is the quoted user agent. Fields 0-1 (human-readable date
	// and time) are validated for presence but not parsed.
	var fields [11][]byte
	rest := line
	for i := 0; i < 11; i++ {
		sp := -1
		for j := 0; j < len(rest); j++ {
			if rest[j] == ' ' {
				sp = j
				break
			}
		}
		if sp < 0 {
			return ErrBadRecord
		}
		fields[i] = rest[:sp]
		rest = rest[sp+1:]
	}
	epoch, ok := parseIntBytes(fields[2], 64)
	if !ok {
		return ErrBadRecord
	}
	status, ok := parseIntBytes(fields[8], strconv.IntSize)
	if !ok {
		return ErrBadRecord
	}
	bytesOut, ok := parseIntBytes(fields[9], strconv.IntSize)
	if !ok {
		return ErrBadRecord
	}
	bytesIn, ok := parseIntBytes(fields[10], strconv.IntSize)
	if !ok {
		return ErrBadRecord
	}
	ua := rest
	if len(ua) < 2 || ua[0] != '"' || ua[len(ua)-1] != '"' {
		return ErrBadRecord
	}
	v.Timestamp = epoch
	v.ClientIP = fields[3]
	v.Method = fields[4]
	v.Scheme = fields[5]
	v.Host = fields[6]
	v.Path = fields[7]
	v.Status = int(status)
	v.BytesOut = int(bytesOut)
	v.BytesIn = int(bytesIn)
	v.UserAgent = ua[1 : len(ua)-1]
	return nil
}

// parseIntBytes parses a base-10 signed integer of the given bit size
// from b, with strconv.ParseInt's exact accept/reject behavior (optional
// sign, digits only, no underscores, overflow rejected) but no
// allocation.
//
//bw:noalloc integer fields of the per-line parse hot path
func parseIntBytes(b []byte, bitSize int) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1)<<(bitSize-1) - 1
	if neg {
		limit++
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n > (limit-uint64(c))/10 {
			return 0, false
		}
		n = n*10 + uint64(c)
	}
	if neg {
		return int64(-n), true
	}
	return int64(n), true
}
