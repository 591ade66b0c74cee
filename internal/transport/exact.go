package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The exact codec: a hand-written encoder and decoder for the four messages
// that carry a WirePayload (RoundStart, RoundUpload, RoundEnd, ShardDigest),
// producing and consuming exactly the bytes encoding/gob does. gob reflects
// over and varint-codes every float64 one at a time and compiles a decoder
// per message; here a float64 section is one size pass and one store per
// value.
//
// A gob stream is a sequence of messages, each a uint byte count followed by
// a signed type id and a body. A fresh gob.Encoder (one per Encode call)
// first sends the definitions of every type the value needs (negative ids),
// then one value message. Type ids are assigned process-wide in first-use
// order, so the definitions are taken from gob itself: the first Encode of a
// type gob-encodes its zero value once and keeps everything before the value
// message (the prefix) plus the value's encoded type id. The value message
// is then written by hand, following gob's rules: struct fields are sent as
// a delta from the previous field number, zero scalars and empty slices are
// skipped, nested structs are always sent and end with a 0 delta, and every
// uint is minimal — one byte up to 0x7F, else a negated byte count and the
// big-endian bytes. A float64 is its bits byte-reversed and sent as a uint.
//
// The decoder accepts only that canonical form — the captured prefix, minimal
// uints, strictly ascending in-range field numbers, no zero field or empty
// slice, in-range int32/uint8 values, and a value message consumed exactly
// with nothing after it — into a zero-valued destination. Everything else
// (a peer whose type ids differ, a non-minimal uint, trailing bytes, a
// destination that already holds data) is handed to encoding/gob unchanged,
// so the set of accepted inputs, the decoded values and the error texts are
// gob's own. Because the frame is captured only by Encode, a process decodes
// a type exactly only after encoding it itself, and only from a peer whose
// type ids match — in practice the same process (the in-process bus, or TCP
// on loopback). Between separate processes decoding stays on gob.

// tooBig mirrors encoding/gob's sanity bound on message and slice sizes;
// inputs at or beyond it take the gob path, which rejects them.
const tooBig = (1 << 30) << (^uint(0) >> 62)

// exactFrame is gob's framing of one message type, as captured from gob.
type exactFrame struct {
	prefix []byte // the type-definition messages gob sends before a value
	id     []byte // the value message's encoded type id
}

// exactType holds one message type's captured frame. The frame is captured
// by the first Encode of the type, exactly when gob itself would have
// assigned the type ids; Decode only reads it; before any Encode it defers
// to gob, so decoding never moves the process's type-id assignment.
type exactType struct {
	once  sync.Once
	zero  any
	frame atomic.Pointer[exactFrame]
}

var (
	exactRoundStart  = exactType{zero: RoundStart{}}
	exactRoundUpload = exactType{zero: RoundUpload{}}
	exactRoundEnd    = exactType{zero: RoundEnd{}}
	exactShardDigest = exactType{zero: ShardDigest{}}
)

// captured returns the type's frame, capturing it from gob on first use
// (nil if gob's output could not be parsed, which leaves the type on gob).
func (t *exactType) captured() *exactFrame {
	t.once.Do(func() {
		var buf bytes.Buffer
		if gob.NewEncoder(&buf).Encode(t.zero) != nil {
			return
		}
		b := buf.Bytes()
		r := rbuf{b: b}
		for !r.bad && r.p < len(b) {
			start := r.p
			n := r.uint()
			if r.bad || n > uint64(len(b)-r.p) {
				return
			}
			end, idStart := r.p+int(n), r.p
			if id := r.int(); !r.bad && id > 0 {
				t.frame.Store(&exactFrame{
					prefix: append([]byte(nil), b[:start]...),
					id:     append([]byte(nil), b[idStart:r.p]...),
				})
				return
			}
			r.p = end
		}
	})
	return t.frame.Load()
}

// exactWriter returns the captured-frame slot and the value writer for the
// four exact message types (value or non-nil pointer form), or nil.
func exactWriter(v any) (*exactType, func(*wbuf)) {
	switch m := v.(type) {
	case RoundStart:
		return &exactRoundStart, func(w *wbuf) { w.roundStart(&m) }
	case *RoundStart:
		if m != nil {
			return &exactRoundStart, func(w *wbuf) { w.roundStart(m) }
		}
	case RoundUpload:
		return &exactRoundUpload, func(w *wbuf) { w.roundUpload(&m) }
	case *RoundUpload:
		if m != nil {
			return &exactRoundUpload, func(w *wbuf) { w.roundUpload(m) }
		}
	case RoundEnd:
		return &exactRoundEnd, func(w *wbuf) { w.roundEnd(&m) }
	case *RoundEnd:
		if m != nil {
			return &exactRoundEnd, func(w *wbuf) { w.roundEnd(m) }
		}
	case ShardDigest:
		return &exactShardDigest, func(w *wbuf) { w.shardDigest(&m) }
	case *ShardDigest:
		if m != nil {
			return &exactShardDigest, func(w *wbuf) { w.shardDigest(m) }
		}
	}
	return nil, nil
}

// exactSize returns the encoded length of v and its framing: the captured
// frame, the value message's body length (type id + value). ok is false when
// v is not an exact type or must take the gob path.
func exactSize(v any) (fr *exactFrame, write func(*wbuf), body, total int, ok bool) {
	t, write := exactWriter(v)
	if t == nil {
		return nil, nil, 0, 0, false
	}
	if fr = t.captured(); fr == nil {
		return nil, nil, 0, 0, false
	}
	var size wbuf
	write(&size)
	body = len(fr.id) + size.n
	if body >= tooBig {
		return nil, nil, 0, 0, false
	}
	return fr, write, body, len(fr.prefix) + uintLen(uint64(body)) + body, true
}

// encodeExact encodes v exactly as gob would, in one allocation; nil means v
// takes the gob path.
func encodeExact(v any) []byte {
	fr, write, body, total, ok := exactSize(v)
	if !ok {
		return nil
	}
	// The slack past total lets every uint be written with one 8-byte store.
	buf := make([]byte, total+8)
	w := wbuf{b: buf, n: copy(buf, fr.prefix)}
	w.uint(uint64(body))
	w.n += copy(buf[w.n:], fr.id)
	write(&w)
	return buf[:total]
}

// decodeExact decodes payload into v when v is a pointer to a zero-valued
// exact message type and payload is in canonical form; false leaves v
// untouched (still zero) for the gob path.
func decodeExact(payload []byte, v any) bool {
	switch m := v.(type) {
	case *RoundStart:
		return decodeInto(&exactRoundStart, payload, m, (*rbuf).roundStart)
	case *RoundUpload:
		return decodeInto(&exactRoundUpload, payload, m, (*rbuf).roundUpload)
	case *RoundEnd:
		return decodeInto(&exactRoundEnd, payload, m, (*rbuf).roundEnd)
	case *ShardDigest:
		return decodeInto(&exactShardDigest, payload, m, (*rbuf).shardDigest)
	}
	return false
}

// decodeInto runs one exact decode into the zero value *m. On any departure
// from the canonical form it resets *m to zero and reports false.
func decodeInto[T any](t *exactType, payload []byte, m *T, read func(*rbuf, *T)) bool {
	fr := t.frame.Load()
	if fr == nil || m == nil || !reflect.ValueOf(m).Elem().IsZero() || !bytes.HasPrefix(payload, fr.prefix) {
		return false
	}
	r := rbuf{b: payload, p: len(fr.prefix)}
	n := r.uint()
	if !r.bad && n == uint64(len(payload)-r.p) && n < tooBig && bytes.HasPrefix(payload[r.p:], fr.id) {
		r.p += len(fr.id)
		read(&r, m)
		if !r.bad && r.p == len(payload) {
			return true
		}
	}
	var zero T
	*m = zero
	return false
}

// uintLen is the length of gob's minimal encoding of x.
func uintLen(x uint64) int {
	if x <= 0x7F {
		return 1
	}
	return 1 + 8 - bits.LeadingZeros64(x)>>3
}

// wbuf writes one value message body. With b nil it is the size pass: it
// only counts the bytes the write pass will fill. In the write pass b has 8
// bytes of slack past the message end.
type wbuf struct {
	b []byte
	n int
}

func (w *wbuf) uint(x uint64) {
	if x <= 0x7F {
		if w.b != nil {
			w.b[w.n] = byte(x)
		}
		w.n++
		return
	}
	nb := 8 - bits.LeadingZeros64(x)>>3
	if w.b != nil {
		w.b[w.n] = byte(-nb)
		binary.BigEndian.PutUint64(w.b[w.n+1:], x<<(64-8*nb))
	}
	w.n += 1 + nb
}

// int writes a signed int as gob does: the sign in the low bit, the
// magnitude (complemented when negative) above it.
func (w *wbuf) int(i int64) {
	if i < 0 {
		w.uint(uint64(^i<<1) | 1)
	} else {
		w.uint(uint64(i << 1))
	}
}

// field writes the delta from the last field number to f.
func (w *wbuf) field(last *int, f int) {
	w.uint(uint64(f - *last))
	*last = f
}

func (w *wbuf) intField(last *int, f, v int) {
	if v != 0 {
		w.field(last, f)
		w.int(int64(v))
	}
}

func (w *wbuf) boolField(last *int, f int, v bool) {
	if v {
		w.field(last, f)
		w.uint(1)
	}
}

func (w *wbuf) uint8Field(last *int, f int, v uint8) {
	if v != 0 {
		w.field(last, f)
		w.uint(uint64(v))
	}
}

func (w *wbuf) float64Field(last *int, f int, v float64) {
	if v != 0 {
		w.field(last, f)
		w.uint(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// bytesField writes a []byte or string field: length, then the bytes.
func bytesField[T []byte | string](w *wbuf, last *int, f int, v T) {
	if len(v) > 0 {
		w.field(last, f)
		w.uint(uint64(len(v)))
		if w.b != nil {
			copy(w.b[w.n:], v)
		}
		w.n += len(v)
	}
}

// intsField writes an int or int32 slice: length, then each value.
func intsField[T int | int32](w *wbuf, last *int, f int, vs []T) {
	if len(vs) > 0 {
		w.field(last, f)
		w.uint(uint64(len(vs)))
		for _, v := range vs {
			w.int(int64(v))
		}
	}
}

// float64sField writes a float64 slice: every element is sent, zeros too,
// as its byte-reversed bits in minimal uint form. A value whose low
// mantissa byte is set (most trained weights) takes all 8 bytes: the count
// byte -8, then the byte-reversed bits big-endian, which is the bits
// little-endian.
func (w *wbuf) float64sField(last *int, f int, vs []float64) {
	if len(vs) == 0 {
		return
	}
	w.field(last, f)
	w.uint(uint64(len(vs)))
	if w.b == nil {
		for _, v := range vs {
			u := math.Float64bits(v)
			if u&0xFF != 0 {
				w.n += 9
				continue
			}
			w.n += uintLen(bits.ReverseBytes64(u))
		}
		return
	}
	b, n := w.b, w.n
	for _, v := range vs {
		u := math.Float64bits(v)
		if u&0xFF != 0 {
			b[n] = 0xF8
			binary.LittleEndian.PutUint64(b[n+1:], u)
			n += 9
			continue
		}
		x := bits.ReverseBytes64(u)
		if x <= 0x7F {
			b[n] = byte(x)
			n++
			continue
		}
		nb := 8 - bits.LeadingZeros64(x)>>3
		b[n] = byte(-nb)
		binary.BigEndian.PutUint64(b[n+1:], x<<(64-8*nb))
		n += 1 + nb
	}
	w.n = n
}

func (w *wbuf) payload(p *WirePayload) {
	last := -1
	w.boolField(&last, 0, p.HasLogits)
	w.intField(&last, 1, p.Rows)
	w.intField(&last, 2, p.Cols)
	w.float64sField(&last, 3, p.Logits)
	w.boolField(&last, 4, p.LogitsLocal)
	intsField(w, &last, 5, p.Indices)
	w.boolField(&last, 6, p.HasProtos)
	w.intField(&last, 7, p.ProtoNumClasses)
	intsField(w, &last, 8, p.ProtoClasses)
	intsField(w, &last, 9, p.ProtoCounts)
	w.intField(&last, 10, p.ProtoDim)
	w.float64sField(&last, 11, p.ProtoValues)
	w.float64sField(&last, 12, p.Params)
	w.intField(&last, 13, p.ParamsCounted)
	w.intField(&last, 14, p.NumSamples)
	w.uint8Field(&last, 15, p.Codec)
	bytesField(w, &last, 16, p.LogitsEnc)
	bytesField(w, &last, 17, p.ProtosEnc)
	bytesField(w, &last, 18, p.ParamsEnc)
	w.intField(&last, 19, p.ParamsN)
	w.uint(0)
}

// payloadField writes a nested WirePayload, which gob always sends.
func (w *wbuf) payloadField(last *int, f int, p *WirePayload) {
	w.field(last, f)
	w.payload(p)
}

func (w *wbuf) roundStart(m *RoundStart) {
	last := -1
	w.intField(&last, 0, m.Round)
	w.boolField(&last, 1, m.HasGlobal)
	w.payloadField(&last, 2, &m.Global)
	w.uint8Field(&last, 3, m.Codec)
	w.uint(0)
}

func (w *wbuf) roundUpload(m *RoundUpload) {
	last := -1
	w.intField(&last, 0, m.Round)
	w.intField(&last, 1, m.Client)
	bytesField(w, &last, 2, m.Err)
	w.boolField(&last, 3, m.HasPayload)
	w.payloadField(&last, 4, &m.Payload)
	w.uint(0)
}

func (w *wbuf) roundEnd(m *RoundEnd) {
	last := -1
	w.intField(&last, 0, m.Round)
	bytesField(w, &last, 1, m.Err)
	w.boolField(&last, 2, m.HasBroadcast)
	w.payloadField(&last, 3, &m.Broadcast)
	w.uint8Field(&last, 4, m.Codec)
	w.uint(0)
}

func (w *wbuf) shardDigest(m *ShardDigest) {
	last := -1
	w.intField(&last, 0, m.Round)
	w.intField(&last, 1, m.Shard)
	if len(m.Uploads) > 0 {
		w.field(&last, 2)
		w.uint(uint64(len(m.Uploads)))
		for i := range m.Uploads {
			su := &m.Uploads[i]
			ulast := -1
			w.intField(&ulast, 0, su.Client)
			w.payloadField(&ulast, 1, &su.Payload)
			w.uint(0)
		}
	}
	w.boolField(&last, 3, m.HasSum)
	w.payloadField(&last, 4, &m.Sum)
	w.float64Field(&last, 5, m.Weight)
	w.intField(&last, 6, m.Count)
	w.intField(&last, 7, m.Heard)
	intsField(w, &last, 8, m.Missing)
	bytesField(w, &last, 9, m.Err)
	w.uint(0)
}

// rbuf reads one canonical value message. Any departure from the form wbuf
// writes sets bad; the caller then hands the whole payload to gob.
type rbuf struct {
	b   []byte
	p   int
	bad bool
}

// uint reads a minimally encoded uint.
func (r *rbuf) uint() uint64 {
	if r.bad || r.p >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.p]
	if c <= 0x7F {
		r.p++
		return uint64(c)
	}
	nb := -int(int8(c))
	if nb > 8 || r.p+1+nb > len(r.b) || r.b[r.p+1] == 0 || (nb == 1 && r.b[r.p+1] <= 0x7F) {
		r.bad = true
		return 0
	}
	var x uint64
	for _, d := range r.b[r.p+1 : r.p+1+nb] {
		x = x<<8 | uint64(d)
	}
	r.p += 1 + nb
	return x
}

func (r *rbuf) int() int64 {
	x := r.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// next reads the field number following last in a struct of nfields fields,
// or -1 at the struct's terminator (or on a malformed delta, which sets bad).
func (r *rbuf) next(last, nfields int) int {
	d := r.uint()
	if d == 0 {
		return -1
	}
	if d > uint64(nfields-1-last) {
		r.bad = true
		return -1
	}
	return last + int(d)
}

// nonzeroInt reads an int field, which gob never sends when zero.
func (r *rbuf) nonzeroInt() int {
	v := r.int()
	if v == 0 || int64(int(v)) != v {
		r.bad = true
	}
	return int(v)
}

// trueBool reads a bool field, which gob sends only as 1.
func (r *rbuf) trueBool() bool {
	if r.uint() != 1 {
		r.bad = true
	}
	return true
}

func (r *rbuf) nonzeroUint8() uint8 {
	v := r.uint()
	if v == 0 || v > math.MaxUint8 {
		r.bad = true
	}
	return uint8(v)
}

func (r *rbuf) nonzeroFloat64() float64 {
	v := math.Float64frombits(bits.ReverseBytes64(r.uint()))
	if v == 0 {
		r.bad = true
	}
	return v
}

// count reads a non-empty slice length whose elements take at least one
// byte each and at most elemSize bytes in memory, within gob's bounds.
func (r *rbuf) count(elemSize uintptr) int {
	n := r.uint()
	if n == 0 || n > uint64(len(r.b)-r.p) || n*uint64(elemSize) > tooBig {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *rbuf) bytes() []byte {
	n := r.count(1)
	if r.bad {
		return nil
	}
	v := make([]byte, n)
	r.p += copy(v, r.b[r.p:])
	return v
}

func (r *rbuf) string() string {
	n := r.count(1)
	if r.bad {
		return ""
	}
	v := string(r.b[r.p : r.p+n])
	r.p += n
	return v
}

// ints reads an int or int32 slice; a value out of T's range is gob's
// overflow error, so it defers.
func ints[T int | int32](r *rbuf) []T {
	n := r.count(unsafe.Sizeof(T(0)))
	if r.bad {
		return nil
	}
	vs := make([]T, n)
	for i := range vs {
		v := r.int()
		if r.bad || int64(T(v)) != v {
			r.bad = true
			return nil
		}
		vs[i] = T(v)
	}
	return vs
}

// float64s reads a float64 slice: per value one count byte and, when the
// input has room, one 8-byte load.
func (r *rbuf) float64s() []float64 {
	n := r.count(8)
	if r.bad {
		return nil
	}
	vs := make([]float64, n)
	b, p := r.b, r.p
	for i := range vs {
		if p >= len(b) {
			r.bad = true
			return nil
		}
		c := b[p]
		if c == 0xF8 && p+9 <= len(b) && b[p+1] != 0 {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[p+1:]))
			p += 9
			continue
		}
		if c <= 0x7F {
			vs[i] = math.Float64frombits(uint64(c) << 56)
			p++
			continue
		}
		nb := -int(int8(c))
		if nb > 8 || p+1+nb > len(b) || b[p+1] == 0 || (nb == 1 && b[p+1] <= 0x7F) {
			r.bad = true
			return nil
		}
		// The nb bytes after the count are the big-endian low bytes of the
		// byte-reversed bits, i.e. the high bytes of the bits in
		// little-endian order.
		var u uint64
		if p+9 <= len(b) {
			u = binary.LittleEndian.Uint64(b[p+1:]) << (64 - 8*nb)
		} else {
			for k := nb; k >= 1; k-- {
				u = u<<8 | uint64(b[p+k])
			}
			u <<= 64 - 8*nb
		}
		vs[i] = math.Float64frombits(u)
		p += 1 + nb
	}
	r.p = p
	return vs
}

func (r *rbuf) payload(p *WirePayload) {
	for f := r.next(-1, 20); f >= 0; f = r.next(f, 20) {
		switch f {
		case 0:
			p.HasLogits = r.trueBool()
		case 1:
			p.Rows = r.nonzeroInt()
		case 2:
			p.Cols = r.nonzeroInt()
		case 3:
			p.Logits = r.float64s()
		case 4:
			p.LogitsLocal = r.trueBool()
		case 5:
			p.Indices = ints[int32](r)
		case 6:
			p.HasProtos = r.trueBool()
		case 7:
			p.ProtoNumClasses = r.nonzeroInt()
		case 8:
			p.ProtoClasses = ints[int32](r)
		case 9:
			p.ProtoCounts = ints[int32](r)
		case 10:
			p.ProtoDim = r.nonzeroInt()
		case 11:
			p.ProtoValues = r.float64s()
		case 12:
			p.Params = r.float64s()
		case 13:
			p.ParamsCounted = r.nonzeroInt()
		case 14:
			p.NumSamples = r.nonzeroInt()
		case 15:
			p.Codec = r.nonzeroUint8()
		case 16:
			p.LogitsEnc = r.bytes()
		case 17:
			p.ProtosEnc = r.bytes()
		case 18:
			p.ParamsEnc = r.bytes()
		case 19:
			p.ParamsN = r.nonzeroInt()
		}
	}
}

func (r *rbuf) roundStart(m *RoundStart) {
	sent := false
	for f := r.next(-1, 4); f >= 0; f = r.next(f, 4) {
		switch f {
		case 0:
			m.Round = r.nonzeroInt()
		case 1:
			m.HasGlobal = r.trueBool()
		case 2:
			r.payload(&m.Global)
			sent = true
		case 3:
			m.Codec = r.nonzeroUint8()
		}
	}
	r.bad = r.bad || !sent
}

func (r *rbuf) roundUpload(m *RoundUpload) {
	sent := false
	for f := r.next(-1, 5); f >= 0; f = r.next(f, 5) {
		switch f {
		case 0:
			m.Round = r.nonzeroInt()
		case 1:
			m.Client = r.nonzeroInt()
		case 2:
			m.Err = r.string()
		case 3:
			m.HasPayload = r.trueBool()
		case 4:
			r.payload(&m.Payload)
			sent = true
		}
	}
	r.bad = r.bad || !sent
}

func (r *rbuf) roundEnd(m *RoundEnd) {
	sent := false
	for f := r.next(-1, 5); f >= 0; f = r.next(f, 5) {
		switch f {
		case 0:
			m.Round = r.nonzeroInt()
		case 1:
			m.Err = r.string()
		case 2:
			m.HasBroadcast = r.trueBool()
		case 3:
			r.payload(&m.Broadcast)
			sent = true
		case 4:
			m.Codec = r.nonzeroUint8()
		}
	}
	r.bad = r.bad || !sent
}

func (r *rbuf) shardDigest(m *ShardDigest) {
	sent := false
	for f := r.next(-1, 10); f >= 0; f = r.next(f, 10) {
		switch f {
		case 0:
			m.Round = r.nonzeroInt()
		case 1:
			m.Shard = r.nonzeroInt()
		case 2:
			n := r.count(unsafe.Sizeof(ShardUpload{}))
			if r.bad {
				return
			}
			m.Uploads = make([]ShardUpload, n)
			for i := range m.Uploads {
				su := &m.Uploads[i]
				usent := false
				for uf := r.next(-1, 2); uf >= 0; uf = r.next(uf, 2) {
					if uf == 0 {
						su.Client = r.nonzeroInt()
					} else {
						r.payload(&su.Payload)
						usent = true
					}
				}
				if r.bad || !usent {
					r.bad = true
					return
				}
			}
		case 3:
			m.HasSum = r.trueBool()
		case 4:
			r.payload(&m.Sum)
			sent = true
		case 5:
			m.Weight = r.nonzeroFloat64()
		case 6:
			m.Count = r.nonzeroInt()
		case 7:
			m.Heard = r.nonzeroInt()
		case 8:
			m.Missing = ints[int](r)
		case 9:
			m.Err = r.string()
		}
	}
	r.bad = r.bad || !sent
}
