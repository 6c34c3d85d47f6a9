package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"unicode/utf8"

	"smtsim"
)

// streamLine is one line of a sweep's NDJSON stream as the client reads
// it: a cell line, a failed cell's error line, or the terminal
// {"done":true,"total":N} line (total is not kept).
type streamLine struct {
	cellLine
	Done bool `json:"done"`
}

// decodeStreamLine decodes one stream line. The lines handleStream
// writes take the reflection-free parser below; any other input is
// decoded by encoding/json, which stays the reference for what a line
// means.
func decodeStreamLine(b []byte) (streamLine, error) {
	var l streamLine
	if parseStreamLine(b, &l) == nil {
		return l, nil
	}
	l = streamLine{}
	err := json.Unmarshal(b, &l)
	return l, err
}

// errNotStreamShape means a line is not in the exact shape
// handleStream writes; encoding/json decides what it means.
var errNotStreamShape = errors.New("sweepd: not a plain stream line")

// parseStreamLine decodes b into the zero line l without reflection,
// accepting only what encoding/json's encoder emits for a streamLine:
// no whitespace, exact-case keys of known fields, strings without
// escapes, numbers in JSON's grammar parsed with the strconv calls
// encoding/json makes (so every float is bit-identical), no null and
// nothing after the closing brace. A repeated scalar key overwrites,
// as in encoding/json; a repeated "result" or "Threads" is refused,
// since encoding/json merges into the value already decoded. Anything
// else returns errNotStreamShape.
func parseStreamLine(b []byte, l *streamLine) error {
	p := lineParser{b: b}
	ok := p.object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return p.int(&l.Index)
		case "hash":
			return p.str(&l.Hash)
		case "error":
			return p.str(&l.Error)
		case "done":
			return p.bool(&l.Done)
		case "total":
			var total int
			return p.int(&total)
		case "result":
			if l.Result != nil {
				return false
			}
			l.Result = new(smtsim.Result)
			return p.result(l.Result)
		}
		return false
	})
	if !ok || p.i != len(b) {
		return errNotStreamShape
	}
	return nil
}

// lineParser walks one stream line. Each method consumes one value at
// i and reports whether it was well formed.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) next(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object consumes an object, calling field once per member with the
// parser at the member's value; field consumes the value.
func (p *lineParser) object(field func(key []byte) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	for {
		key, ok := p.rawString()
		if !ok || !p.next(':') || !field(key) {
			return false
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// array consumes an array, calling elem once per element.
func (p *lineParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// rawString consumes a string with no escapes and returns its contents.
// Control characters are invalid JSON; invalid UTF-8 would decode to
// U+FFFD.
func (p *lineParser) rawString() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	ascii := true
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			p.i = j + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (p *lineParser) str(v *string) bool {
	s, ok := p.rawString()
	*v = string(s)
	return ok
}

func (p *lineParser) bool(v *bool) bool {
	switch {
	case p.literal("true"):
		*v = true
	case p.literal("false"):
		*v = false
	default:
		return false
	}
	return true
}

func (p *lineParser) literal(s string) bool {
	if bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		p.i += len(s)
		return true
	}
	return false
}

// number consumes a literal matching JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *lineParser) number() ([]byte, bool) {
	start := p.i
	p.next('-')
	if !p.next('0') && !p.digits() {
		return nil, false
	}
	if p.next('.') && !p.digits() {
		return nil, false
	}
	if p.next('e') || p.next('E') {
		if !p.next('+') {
			p.next('-')
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits consumes one or more decimal digits.
func (p *lineParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

func (p *lineParser) int(v *int) bool {
	var n int64
	ok := p.int64(&n) && int64(int(n)) == n
	*v = int(n)
	return ok
}

func (p *lineParser) int64(v *int64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	*v = n
	return err == nil
}

func (p *lineParser) uint64(v *uint64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	*v = n
	return err == nil
}

func (p *lineParser) float64(v *float64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	*v = f
	return err == nil
}

// result consumes a smtsim.Result object: one case per exported field.
func (p *lineParser) result(r *smtsim.Result) bool {
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "Cycles":
			return p.int64(&r.Cycles)
		case "Committed":
			return p.uint64(&r.Committed)
		case "IPC":
			return p.float64(&r.IPC)
		case "Threads":
			return r.Threads == nil && p.threads(&r.Threads)
		case "DispatchStallAllNDI":
			return p.float64(&r.DispatchStallAllNDI)
		case "DispatchStallNDIWeak":
			return p.float64(&r.DispatchStallNDIWeak)
		case "DispatchStallAllAny":
			return p.float64(&r.DispatchStallAllAny)
		case "IQResidency":
			return p.float64(&r.IQResidency)
		case "IQOccupancy":
			return p.float64(&r.IQOccupancy)
		case "HDIPiledFrac":
			return p.float64(&r.HDIPiledFrac)
		case "HDIDepOnNDIFrac":
			return p.float64(&r.HDIDepOnNDIFrac)
		case "HDIDispatched":
			return p.uint64(&r.HDIDispatched)
		case "DABInserts":
			return p.uint64(&r.DABInserts)
		case "WatchdogFlushes":
			return p.uint64(&r.WatchdogFlushes)
		case "GateFlushes":
			return p.uint64(&r.GateFlushes)
		case "MSHRStallEvents":
			return p.uint64(&r.MSHRStallEvents)
		case "SchedulerEnergyPerInst":
			return p.float64(&r.SchedulerEnergyPerInst)
		case "SchedulerEDP":
			return p.float64(&r.SchedulerEDP)
		case "Comparators":
			return p.int(&r.Comparators)
		case "L1DMissRate":
			return p.float64(&r.L1DMissRate)
		case "L2MissRate":
			return p.float64(&r.L2MissRate)
		case "L1IMissRate":
			return p.float64(&r.L1IMissRate)
		}
		return false
	})
}

// threads consumes the Threads array. An empty array decodes to an
// empty, non-nil slice, as in encoding/json.
func (p *lineParser) threads(ts *[]smtsim.ThreadResult) bool {
	*ts = []smtsim.ThreadResult{}
	return p.array(func() bool {
		*ts = append(*ts, smtsim.ThreadResult{})
		return p.thread(&(*ts)[len(*ts)-1])
	})
}

func (p *lineParser) thread(t *smtsim.ThreadResult) bool {
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "Benchmark":
			return p.str(&t.Benchmark)
		case "Committed":
			return p.uint64(&t.Committed)
		case "IPC":
			return p.float64(&t.IPC)
		case "MispredictRate":
			return p.float64(&t.MispredictRate)
		}
		return false
	})
}
