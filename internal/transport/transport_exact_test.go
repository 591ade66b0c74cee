package transport

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The exact codec is checked against encoding/gob itself: gob is the
// reference for both the bytes Encode writes and the values Decode yields.
//
// gob assigns type ids process-wide in first-use order, and
// TestFuzzSeedCorpusFiles pins encoded bytes (ids included) to the checked-in
// corpus, so this file sorts after fuzz_test.go: its tests encode only after
// the corpus test has fixed the ids the corpus was generated with.

// gobEncode is the reference encoder.
func gobEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// gobDecode is the reference decoder.
func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// bitEqual reports whether a and b hold the same value with floats compared
// bit for bit (NaN payloads and -0 included) and nil distinguished from
// empty slices, which reflect.DeepEqual cannot do for NaN.
func bitEqual(a, b any) bool {
	return bitEqualValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func bitEqualValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqualValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// randGen draws message fields that stress gob's encoding rules: absent and
// zero fields, ints around the one-byte boundary and at the int64 extremes,
// NaN, ±Inf, -0 and subnormal floats, and nil vs empty slices.
type randGen struct{ *rand.Rand }

func (g randGen) int() int {
	switch g.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return []int{1, -1, 63, 64, -64, -65, 127, 128}[g.Intn(8)]
	case 3:
		return []int{math.MaxInt64, math.MinInt64, math.MaxInt32 + 1, math.MinInt32 - 1}[g.Intn(4)]
	default:
		return g.Intn(1<<20) - 1<<19
	}
}

func (g randGen) float() float64 {
	switch g.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(0x7ff8_dead_beef_0001) // NaN with a payload
	case 4:
		return math.Inf(1 - 2*g.Intn(2))
	case 5:
		return math.SmallestNonzeroFloat64 * float64(1+g.Intn(1000))
	case 6:
		return []float64{1, 2, -0.5, 0.25, 1 << 20, math.MaxFloat64}[g.Intn(6)]
	default:
		return g.NormFloat64()
	}
}

func (g randGen) floats() []float64 {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	n := 1 + g.Intn(40)
	if g.Intn(6) == 0 {
		n = 100 + g.Intn(400) // multi-byte slice counts
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = g.float()
	}
	return vs
}

func (g randGen) int32s() []int32 {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	vs := make([]int32, 1+g.Intn(12))
	for i := range vs {
		switch g.Intn(4) {
		case 0:
			vs[i] = []int32{0, -1, math.MaxInt32, math.MinInt32}[g.Intn(4)]
		default:
			vs[i] = int32(g.Intn(300) - 100)
		}
	}
	return vs
}

func (g randGen) ints() []int {
	if g.Intn(3) == 0 {
		return nil
	}
	vs := make([]int, g.Intn(6))
	for i := range vs {
		vs[i] = g.int()
	}
	return vs
}

func (g randGen) bytes() []byte {
	switch g.Intn(3) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+g.Intn(200))
	g.Read(b)
	return b
}

func (g randGen) str() string {
	if g.Intn(2) == 0 {
		return ""
	}
	return string(g.bytes()) // arbitrary bytes, invalid UTF-8 included
}

func (g randGen) bool() bool { return g.Intn(2) == 0 }

func (g randGen) uint8() uint8 {
	if g.Intn(2) == 0 {
		return 0
	}
	return uint8(g.Intn(256))
}

func (g randGen) payload() WirePayload {
	if g.Intn(5) == 0 {
		return WirePayload{}
	}
	return WirePayload{
		HasLogits: g.bool(), Rows: g.int(), Cols: g.int(), Logits: g.floats(),
		LogitsLocal: g.bool(), Indices: g.int32s(),
		HasProtos: g.bool(), ProtoNumClasses: g.int(), ProtoClasses: g.int32s(),
		ProtoCounts: g.int32s(), ProtoDim: g.int(), ProtoValues: g.floats(),
		Params: g.floats(), ParamsCounted: g.int(), NumSamples: g.int(),
		Codec: g.uint8(), LogitsEnc: g.bytes(), ProtosEnc: g.bytes(),
		ParamsEnc: g.bytes(), ParamsN: g.int(),
	}
}

func (g randGen) shardDigest() ShardDigest {
	d := ShardDigest{
		Round: g.int(), Shard: g.int(), HasSum: g.bool(), Sum: g.payload(),
		Weight: g.float(), Count: g.int(), Heard: g.int(), Missing: g.ints(), Err: g.str(),
	}
	switch g.Intn(3) {
	case 0:
	case 1:
		d.Uploads = []ShardUpload{}
	default:
		d.Uploads = make([]ShardUpload, 1+g.Intn(3))
		for i := range d.Uploads {
			d.Uploads[i] = ShardUpload{Client: g.int(), Payload: g.payload()}
		}
	}
	return d
}

// checkExact asserts the exact codec's contract on one message in both
// forms: Encode writes gob's bytes and EncodedSize their length, the exact
// decoder accepts them, and its value is bit-equal to gob's decode.
func checkExact[T any](t *testing.T, m T) {
	t.Helper()
	want := gobEncode(t, m)
	for _, form := range []any{m, &m} {
		got, err := Encode(form)
		if err != nil {
			t.Fatalf("Encode(%T): %v", form, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode(%T) differs from gob (%d vs %d bytes) for %+v", form, len(got), len(want), m)
		}
		if n, err := EncodedSize(form); err != nil || n != len(want) {
			t.Fatalf("EncodedSize(%T) = %d, %v; want %d", form, n, err, len(want))
		}
	}
	var exact, ref T
	if !decodeExact(want, &exact) {
		t.Fatalf("exact decoder deferred on gob's own encoding of %T", m)
	}
	if err := gobDecode(want, &ref); err != nil {
		t.Fatalf("gob decode %T: %v", m, err)
	}
	if !bitEqual(exact, ref) {
		t.Fatalf("exact decode of %T differs from gob's:\n%+v\n%+v", m, exact, ref)
	}
	if reenc := gobEncode(t, exact); !bytes.Equal(reenc, want) {
		t.Fatalf("exact decode of %T does not re-encode to its input", m)
	}
}

// TestExactCodecMatchesGob is the differential property over the four exact
// message types: random field presence, special floats, extreme ints, nil vs
// empty slices, value and pointer forms.
func TestExactCodecMatchesGob(t *testing.T) {
	g := randGen{rand.New(rand.NewSource(7))}
	for i := 0; i < 400; i++ {
		checkExact(t, RoundStart{Round: g.int(), HasGlobal: g.bool(), Global: g.payload(), Codec: g.uint8()})
		checkExact(t, RoundUpload{Round: g.int(), Client: g.int(), Err: g.str(), HasPayload: g.bool(), Payload: g.payload()})
		checkExact(t, RoundEnd{Round: g.int(), Err: g.str(), HasBroadcast: g.bool(), Broadcast: g.payload(), Codec: g.uint8()})
		checkExact(t, g.shardDigest())
	}
}

// rewriteBody replaces the value message of an exact encoding of v: body is
// the value's bytes after the type id. The result is a well-formed gob
// stream with the same type definitions.
func rewriteBody(t testing.TB, v any, body []byte) []byte {
	t.Helper()
	et, _ := exactWriter(v)
	if _, err := Encode(v); err != nil {
		t.Fatal(err)
	}
	fr := et.captured()
	msg := append(append([]byte(nil), fr.id...), body...)
	w := wbuf{b: make([]byte, 9+8)}
	w.uint(uint64(len(msg)))
	out := append(append([]byte(nil), fr.prefix...), w.b[:w.n]...)
	return append(out, msg...)
}

// badCountInputs returns RoundUpload streams with the byte 0x80 where a
// uint starts. As a count byte it would announce 128 bytes, more than any
// uint has, so gob rejects it; the exact decoder must defer, never index
// with it. Padding keeps 128 bytes out of reach but enough bytes in range
// that a misread count would be used rather than hit the end of the input.
func badCountInputs(t testing.TB) map[string][]byte {
	t.Helper()
	up := RoundUpload{Round: 2, Client: 3}
	pad := bytes.Repeat([]byte{0x01}, 16)
	body := func(head ...byte) []byte {
		return rewriteBody(t, up, append(append(head, pad...), 0x00, 0x00))
	}
	if _, err := Encode(up); err != nil {
		t.Fatal(err)
	}
	prefix := exactRoundUpload.captured().prefix
	return map[string][]byte{
		"0x80 message length": append(append(append([]byte(nil), prefix...), 0x80), pad...),
		"0x80 field delta":    body(0x01, 0x04, 0x80),
		"0x80 int value":      body(0x01, 0x80),
		"0x80 slice count":    body(0x01, 0x04, 0x01, 0x06, 0x03, 0x0D, 0x80),
		"0x80 float count":    body(0x01, 0x04, 0x01, 0x06, 0x03, 0x0D, 0x01, 0x80),
	}
}

// TestExactDecodeDefersNonCanonical pins the fallback: gob-valid input the
// exact encoder would never write is handed to encoding/gob, so Decode
// returns exactly gob's value (or gob's error).
func TestExactDecodeDefersNonCanonical(t *testing.T) {
	want := RoundUpload{Round: 2, Client: 3}
	canon, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	// Round (field 0) = 2 and Client (field 1) = 3, the always-sent empty
	// Payload (field 4), and the struct terminator.
	if got := rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x03, 0x00, 0x00}); !bytes.Equal(got, canon) {
		t.Fatalf("rewriteBody does not reproduce the canonical encoding")
	}
	// Params = [1.0] (field 12 of the payload): 1.0's byte-reversed bits
	// are 0xF03F, two bytes, so the eight-byte form is non-minimal.
	withParams := RoundUpload{Round: 2, Client: 3, Payload: WirePayload{Params: []float64{1}}}
	paramsCanon, err := Encode(withParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x03, 0x0D, 0x01, 0xFE, 0xF0, 0x3F, 0x00, 0x00}); !bytes.Equal(got, paramsCanon) {
		t.Fatalf("rewriteBody does not reproduce the canonical params encoding")
	}
	cases := map[string][]byte{
		"non-minimal float": rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x03, 0x0D, 0x01,
			0xF8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, 0x00, 0x00}),
		"trailing bytes":          append(append([]byte(nil), canon...), 0x00),
		"non-minimal uint":        rewriteBody(t, want, []byte{0x01, 0xFF, 0x04, 0x01, 0x06, 0x03, 0x00, 0x00}),
		"explicit zero field":     rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x01, 0x00, 0x02, 0x00, 0x00}),
		"bool sent as 2":          rewriteBody(t, RoundUpload{Round: 2, Client: 3, HasPayload: true}, []byte{0x01, 0x04, 0x01, 0x06, 0x02, 0x02, 0x01, 0x00, 0x00}),
		"nested struct omitted":   rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x00}),
		"missing terminator":      rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x03, 0x00}),
		"bytes after terminator":  rewriteBody(t, want, []byte{0x01, 0x04, 0x01, 0x06, 0x03, 0x00, 0x00, 0x07}),
		"non-minimal field delta": rewriteBody(t, want, []byte{0x01, 0x04, 0xFF, 0x01, 0x06, 0x03, 0x00, 0x00}),
	}
	for name, data := range cases {
		var exact RoundUpload
		if decodeExact(data, &exact) {
			t.Errorf("%s: exact decoder accepted non-canonical input", name)
		}
		var ref, got RoundUpload
		refErr := gobDecode(data, &ref)
		if refErr != nil {
			t.Fatalf("%s: not gob-valid: %v", name, refErr)
		}
		if err := Decode(data, &got); err != nil {
			t.Errorf("%s: Decode = %v, gob accepts it", name, err)
		}
		if !bitEqual(got, ref) {
			t.Errorf("%s: Decode = %+v, gob gives %+v", name, got, ref)
		}
	}

	// A destination that already holds data keeps gob's merge semantics:
	// fields absent from the stream stay as they were.
	got := RoundUpload{Err: "kept"}
	if err := Decode(canon, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 2 || got.Client != 3 || got.Err != "kept" {
		t.Errorf("Decode into a non-zero destination = %+v, want gob's merge", got)
	}

	// Malformed input fails with gob's own error text.
	malformed := map[string][]byte{
		"truncated": canon[:len(canon)-3],
		"all 0xff":  []byte(strings.Repeat("\xff", 16)),
		"empty":     {},
	}
	for name, data := range badCountInputs(t) {
		malformed[name] = data
	}
	for name, data := range malformed {
		var a, b RoundUpload
		if decodeExact(data, &a) {
			t.Errorf("%s: exact decoder accepted malformed input", name)
		}
		err := Decode(data, &a)
		refErr := gobDecode(data, &b)
		if err == nil || refErr == nil || err.Error() != "transport: decode payload: "+refErr.Error() {
			t.Errorf("%s: Decode error %v, gob error %v", name, err, refErr)
		}
	}
	// The same byte read at the very start of a buffer, where a count
	// misread as negative would step before the first byte.
	pad := bytes.Repeat([]byte{0x01}, 16)
	r := rbuf{b: append([]byte{0x80}, pad...)}
	if r.uint(); !r.bad {
		t.Error("rbuf.uint accepted the count byte 0x80")
	}
	r = rbuf{b: append([]byte{0x02, 0x80}, pad...)}
	if r.float64s(); !r.bad {
		t.Error("rbuf.float64s accepted the count byte 0x80")
	}
}

// codecBenchParams is the parameter count of the benchmark's avg-wide-tree
// FedAvg model: one RoundUpload and one RoundStart carry this many float64s.
const codecBenchParams = 17500

// codecBenchMessages returns an avg-wide-tree-shaped upload and round start.
func codecBenchMessages() (RoundUpload, RoundStart) {
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, codecBenchParams)
	for i := range params {
		params[i] = 0.1 * rng.NormFloat64()
	}
	up := RoundUpload{Round: 3, Client: 5, HasPayload: true, Payload: WirePayload{Params: params, NumSamples: 20}}
	start := RoundStart{Round: 3, HasGlobal: true, Global: WirePayload{Params: params}}
	return up, start
}

// BenchmarkCodec compares encoding/gob (called directly, the reference) with
// the exact codec behind Encode/Decode on avg-wide-tree-shaped messages.
// scripts/bench.sh codec turns it into BENCH_codec.json.
func BenchmarkCodec(b *testing.B) {
	up, start := codecBenchMessages()
	for _, m := range []struct {
		name   string
		msg    any
		decode func(data []byte, exact bool) error
	}{
		{"upload", up, func(data []byte, exact bool) error {
			var v RoundUpload
			if exact {
				return Decode(data, &v)
			}
			return gobDecode(data, &v)
		}},
		{"start", start, func(data []byte, exact bool) error {
			var v RoundStart
			if exact {
				return Decode(data, &v)
			}
			return gobDecode(data, &v)
		}},
	} {
		data, err := Encode(m.msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/encode/gob", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(m.msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.name+"/encode/exact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(m.msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, side := range []string{"gob", "exact"} {
			exact := side == "exact"
			b.Run(m.name+"/decode/"+side, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := m.decode(data, exact); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
