package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"gbmqo"
	"gbmqo/internal/table"
)

// This file is the wire encoder of result sets. A response body is appended
// straight from the result's columns into one pooled buffer — no per-cell
// boxing, no reflection — and its bytes are exactly what encoding/json
// renders for the same response: the same field order, the same float
// formatting and the same HTML-safe string escaping. A result set on the
// wire is
//
//	{"columns":[names],"types":[type names],"rows":[[cells],...]}
//
// with NULL cells as null, dates as "D<days>" and numbers native.

// errNonFinite is a result holding NaN or ±Inf: JSON has no literal for
// either, so the result cannot be carried and is answered as an error.
var errNonFinite = errors.New("result holds a non-finite float, which JSON cannot carry")

// resultEncoder appends response bodies into buf. Values of one dictionary
// lineage (key columns, MIN/MAX columns) are encoded once per response and
// copied from then on; measure columns (COUNT/SUM/AVG) are read through
// Column.NumericDict.
type resultEncoder struct {
	buf   []byte
	arena []byte     // encoded dictionary values, addressed by memo spans
	memos []dictMemo // one per dictionary lineage seen in this response
	cols  []colCursor
}

// span addresses one encoded value in the arena; hi is 0 until it is encoded.
type span struct{ lo, hi uint32 }

// dictMemo remembers the encoded form of each code of one dictionary lineage.
// Codes mean the same value in every column of a lineage (Column.SharesDict),
// so one memo serves all of them.
type dictMemo struct {
	col   *table.Column
	spans []span // indexed by code
}

// colCursor is one column of the table being encoded.
type colCursor struct {
	col    *table.Column
	codes  table.CodeView
	ints   []int64   // measure column over integers
	floats []float64 // measure column over floats
	memo   int       // index into memos, or -1 to encode every cell afresh
	spans  []span
}

var encoders = sync.Pool{New: func() any { return new(resultEncoder) }}

// maxPooledBuf bounds the buffers a pooled encoder keeps: one huge response
// must not pin its buffer for the life of the process.
const maxPooledBuf = 1 << 20

func getEncoder() *resultEncoder { return encoders.Get().(*resultEncoder) }

// release resets the encoder and returns it to the pool. The memos are
// dropped with their columns so a pooled encoder pins no result table.
func (e *resultEncoder) release() {
	if cap(e.buf) > maxPooledBuf || cap(e.arena) > maxPooledBuf {
		return
	}
	e.buf, e.arena = e.buf[:0], e.arena[:0]
	for i := range e.memos {
		e.memos[i] = dictMemo{spans: e.memos[i].spans[:0]}
	}
	e.memos = e.memos[:0]
	clear(e.cols)
	e.cols = e.cols[:0]
	encoders.Put(e)
}

// queryPage appends a /query body: {"results":[...]}. An answer whose result
// holds a non-finite float is answered with errNonFinite instead.
func (e *resultEncoder) queryPage(answers []gbmqo.PageAnswer) {
	e.buf = append(e.buf, `{"results":[`...)
	for i := range answers {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.answer(&answers[i])
	}
	e.buf = append(e.buf, "]}\n"...)
}

// answer appends one query's outcome inside a /query response: a result with
// the batch that served it, or an error.
func (e *resultEncoder) answer(a *gbmqo.PageAnswer) {
	if a.Err == nil {
		mark := len(e.buf)
		e.buf = append(e.buf, `{"result":`...)
		if a.Err = e.table(a.Table); a.Err == nil {
			e.buf = append(e.buf, `,"batch":`...)
			e.batch(a.Info)
			e.buf = append(e.buf, '}')
			return
		}
		e.buf = e.buf[:mark]
	}
	e.buf = append(e.buf, `{"error":`...)
	e.buf = appendString(e.buf, a.Err.Error())
	e.buf = append(e.buf, '}')
}

func (e *resultEncoder) batch(info gbmqo.BatchInfo) {
	e.buf = append(e.buf, `{"batch_queries":`...)
	e.buf = strconv.AppendInt(e.buf, int64(info.BatchQueries), 10)
	e.buf = append(e.buf, `,"batch_requests":`...)
	e.buf = strconv.AppendInt(e.buf, int64(info.BatchRequests), 10)
	e.buf = append(e.buf, `,"deduped":`...)
	e.buf = strconv.AppendBool(e.buf, info.Deduped)
	e.buf = append(e.buf, `,"queue_wait_ms":`...)
	e.buf, _ = appendFloat(e.buf, float64(info.QueueWait)/float64(time.Millisecond))
	e.buf = append(e.buf, `,"origin":`...)
	e.buf = appendString(e.buf, info.Origin.String())
	if info.Partial {
		e.buf = append(e.buf, `,"partial":true`...)
	}
	if info.ShardsFailed != 0 {
		e.buf = append(e.buf, `,"shards_failed":`...)
		e.buf = strconv.AppendInt(e.buf, int64(info.ShardsFailed), 10)
	}
	e.buf = append(e.buf, '}')
}

// sqlResult appends a /sql body holding one result: {"result":...}.
func (e *resultEncoder) sqlResult(t *gbmqo.Table) error {
	e.buf = append(e.buf, `{"result":`...)
	if err := e.table(t); err != nil {
		return err
	}
	e.buf = append(e.buf, "}\n"...)
	return nil
}

// sqlParts appends a /sql body split by grouping-set tag:
// {"parts":[{"result":...,"tag":...},...]}.
func (e *resultEncoder) sqlParts(parts []*gbmqo.Table, tags []string) error {
	e.buf = append(e.buf, `{"parts":[`...)
	for i, p := range parts {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"result":`...)
		if err := e.table(p); err != nil {
			return err
		}
		e.buf = append(e.buf, `,"tag":`...)
		e.buf = appendString(e.buf, tags[i])
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, "]}\n"...)
	return nil
}

// table appends one result set. On errNonFinite the buffer is left as it
// was before the call.
func (e *resultEncoder) table(t *gbmqo.Table) error {
	mark := len(e.buf)
	nc, nr := t.NumCols(), t.NumRows()
	e.buf = append(e.buf, `{"columns":[`...)
	for c := 0; c < nc; c++ {
		if c > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, t.Col(c).Name())
	}
	e.buf = append(e.buf, `],"types":[`...)
	for c := 0; c < nc; c++ {
		if c > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, t.Col(c).Type().String())
	}
	e.buf = append(e.buf, `],"rows":[`...)
	cols := e.cursors(t)
	for r := 0; r < nr; r++ {
		if r > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '[')
		for c := range cols {
			if c > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.cell(&cols[c], r); err != nil {
				e.buf = e.buf[:mark]
				return err
			}
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "]}"...)
	return nil
}

// cursors prepares one cursor per column of t. A non-measure column uses its
// lineage's memo when its dictionary is not much larger than the rows read
// through it: a MIN over a near-unique column of a small result would
// otherwise size a memo by the whole dictionary.
func (e *resultEncoder) cursors(t *gbmqo.Table) []colCursor {
	e.cols = e.cols[:0]
	for c := 0; c < t.NumCols(); c++ {
		col := t.Col(c)
		cur := colCursor{col: col, codes: col.View(), memo: -1}
		switch {
		case col.Measure():
			cur.ints, cur.floats = col.NumericDict()
		case col.DictSize() <= 4*t.NumRows()+64:
			cur.memo = e.memoFor(col)
		}
		e.cols = append(e.cols, cur)
	}
	// Spans are taken only once every memo has grown: two columns of one
	// lineage may grow the same memo.
	for i := range e.cols {
		if m := e.cols[i].memo; m >= 0 {
			e.cols[i].spans = e.memos[m].spans
		}
	}
	return e.cols
}

// memoFor returns the index of col's lineage memo, grown to cover its codes.
func (e *resultEncoder) memoFor(col *table.Column) int {
	n := col.DictSize() + 1
	for i := range e.memos {
		if m := &e.memos[i]; m.col.SharesDict(col) {
			m.spans = growSpans(m.spans, n)
			return i
		}
	}
	if len(e.memos) < cap(e.memos) {
		e.memos = e.memos[:len(e.memos)+1]
		m := &e.memos[len(e.memos)-1]
		m.col, m.spans = col, growSpans(m.spans[:0], n)
	} else {
		e.memos = append(e.memos, dictMemo{col: col, spans: make([]span, n)})
	}
	return len(e.memos) - 1
}

// growSpans extends s to n zeroed spans, reusing its capacity.
func growSpans(s []span, n int) []span {
	switch {
	case n <= len(s):
		return s
	case n <= cap(s):
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	return append(s, make([]span, n-len(s))...)
}

// cell appends row r of one column.
func (e *resultEncoder) cell(c *colCursor, r int) error {
	code := c.codes.At(r)
	if code == 0 {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	var ok bool
	switch {
	case c.ints != nil:
		e.buf = strconv.AppendInt(e.buf, c.ints[code-1], 10)
		return nil
	case c.floats != nil:
		if e.buf, ok = appendFloat(e.buf, c.floats[code-1]); !ok {
			return errNonFinite
		}
		return nil
	case c.spans == nil:
		if e.buf, ok = appendValue(e.buf, c.col.Decode(code)); !ok {
			return errNonFinite
		}
		return nil
	}
	sp := c.spans[code]
	if sp.hi == 0 {
		lo := len(e.arena)
		if e.arena, ok = appendValue(e.arena, c.col.Decode(code)); !ok {
			e.arena = e.arena[:lo]
			return errNonFinite
		}
		sp = span{lo: uint32(lo), hi: uint32(len(e.arena))}
		c.spans[code] = sp
	}
	e.buf = append(e.buf, e.arena[sp.lo:sp.hi]...)
	return nil
}

// appendValue appends one non-NULL value; ok is false for a non-finite float.
func appendValue(dst []byte, v table.Value) ([]byte, bool) {
	switch v.Typ {
	case table.TInt64:
		return strconv.AppendInt(dst, v.I, 10), true
	case table.TFloat64:
		return appendFloat(dst, v.F)
	case table.TString:
		return appendString(dst, v.S), true
	default: // TDate, rendered as Value.String does
		dst = append(dst, `"D`...)
		dst = strconv.AppendInt(dst, v.I, 10)
		return append(dst, '"'), true
	}
}

// appendFloat appends f as encoding/json renders a float64: the shortest
// decimal in 'f' form, or 'e' form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded (e-7, not e-07). ok is false for NaN
// and ±Inf.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	form := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		form = 'e'
	}
	dst = strconv.AppendFloat(dst, f, form, -1, 64)
	if n := len(dst); form == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// it: '"' and '\\' backslashed, \b \f \n \r \t short-form, other control
// bytes and the HTML-sensitive <, > and & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each invalid UTF-8 byte as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeBody writes a complete JSON body in one call. It sets no
// Content-Length: with one, net/http sends a body larger than its write
// buffer during Write, so a client can have the whole answer before the
// handler returns, and a handler span would no longer nest in the client's
// round trip. Without one, a small body still gets its length at return and
// a larger one ends with the terminating chunk written at return.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
