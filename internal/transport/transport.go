// Package transport provides real message passing for running the federated
// protocols as communicating processes rather than an in-process loop: a
// message envelope with gob payload encoding, an in-memory bus for tests,
// and a length-prefixed TCP transport used by examples/distributed.
//
// The payload encoding is encoding/gob's. The four messages that carry a
// WirePayload — RoundStart, RoundUpload, RoundEnd and ShardDigest — go
// through an exact codec (exact.go) that writes and reads gob's bytes by
// hand, without gob's per-value reflection: the type-definition prefix and
// type id are captured from gob itself, the value message is written in
// gob's canonical form, and the decoder accepts only that form, handing
// every other input to gob. The bytes on the wire, the inputs Decode
// accepts, the values it yields and its errors are all gob's.
//
// The core simulation in internal/fl calls algorithms directly for speed and
// accounts bytes through internal/comm; this package exists so the same
// payloads can also cross a real network boundary.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// Kind labels the payload type of an envelope.
type Kind uint8

// Message kinds exchanged by the federated protocols — one per phase edge
// of the engine's round skeleton, shared by every algorithm.
const (
	// KindRoundStart opens a round (server → client), carrying the
	// front-loaded global state when the algorithm has one.
	KindRoundStart Kind = iota + 1
	// KindUpload carries a client's local-update payload (client → server).
	KindUpload
	// KindRoundEnd closes a round (server → client), carrying the
	// aggregation broadcast when there is one.
	KindRoundEnd
	// KindControl carries round-control messages (start, stop).
	KindControl
	// KindHello registers a client with the server's registry (client →
	// server). It doubles as the TCP attach handshake: a dialing client opens
	// with a hello naming its id and the server acks with a hello addressed
	// back. Round -1 marks registration traffic outside any round.
	KindHello
	// KindGoodbye deregisters a client (client → server): the peer leaves the
	// registered population at the next round barrier and is no longer
	// scheduled into cohorts.
	KindGoodbye
	// KindShardAssign hands a leaf aggregator its shard's round assignment
	// (root → leaf): the round framing each shard member must receive, plus
	// the delta references their uploads decode against.
	KindShardAssign
	// KindShardDigest carries a leaf's reduced shard — its surviving uploads
	// (exact mode) or streaming sum (compact mode) plus the shard's
	// membership report — upward (leaf → root).
	KindShardDigest
	// KindShardEnd closes a shard's round (root → leaf), carrying the
	// encoded RoundEnd the leaf fans to its clients.
	KindShardEnd
)

// String returns the kind name for logs.
func (k Kind) String() string {
	switch k {
	case KindRoundStart:
		return "round-start"
	case KindUpload:
		return "upload"
	case KindRoundEnd:
		return "round-end"
	case KindControl:
		return "control"
	case KindHello:
		return "hello"
	case KindGoodbye:
		return "goodbye"
	case KindShardAssign:
		return "shard-assign"
	case KindShardDigest:
		return "shard-digest"
	case KindShardEnd:
		return "shard-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Envelope is the unit of transfer: a typed, round-stamped payload between
// two peers. Peer -1 denotes the server.
type Envelope struct {
	Kind    Kind
	From    int
	To      int
	Round   int
	Payload []byte
}

// WireSize returns the envelope's size on the wire (header + payload),
// matching what the TCP transport actually writes.
func (e *Envelope) WireSize() int {
	return envelopeHeaderSize + len(e.Payload)
}

const envelopeHeaderSize = 1 + 4 + 4 + 4 + 4 // kind + from + to + round + payload length

// Encode gob-encodes a payload value for an envelope. RoundStart,
// RoundUpload, RoundEnd and ShardDigest (values or non-nil pointers) take
// the exact codec, which writes gob's bytes without gob's per-value
// reflection; every other value goes through encoding/gob.
func Encode(v any) ([]byte, error) {
	if b := encodeExact(v); b != nil {
		return b, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	return buf.Bytes(), nil
}

// EncodedSize returns len(Encode(v)) — for the exact message types without
// encoding, from the exact codec's size pass.
func EncodedSize(v any) (int, error) {
	if _, _, _, total, ok := exactSize(v); ok {
		return total, nil
	}
	b, err := Encode(v)
	return len(b), err
}

// Decode gob-decodes an envelope payload into v (a pointer). A canonical
// payload for one of the exact message types, decoded into a zero value by
// a process that has itself encoded that type, takes the exact codec;
// anything else — including every malformed input —
// is decoded by encoding/gob itself, so the accepted inputs, the decoded
// values and the error texts are gob's.
func Decode(payload []byte, v any) error {
	if decodeExact(payload, v) {
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("transport: decode payload: %w", err)
	}
	return nil
}

// Conn is a bidirectional, ordered envelope stream.
type Conn interface {
	// Send transmits one envelope.
	Send(e *Envelope) error
	// Recv blocks until the next envelope arrives, returning io.EOF after
	// the peer closes.
	Recv() (*Envelope, error)
	// Close releases the connection; subsequent Sends fail.
	Close() error
}

// writeEnvelope serializes an envelope onto w with a fixed header.
func writeEnvelope(w io.Writer, e *Envelope) error {
	header := make([]byte, envelopeHeaderSize)
	header[0] = byte(e.Kind)
	binary.BigEndian.PutUint32(header[1:5], uint32(int32(e.From)))
	binary.BigEndian.PutUint32(header[5:9], uint32(int32(e.To)))
	binary.BigEndian.PutUint32(header[9:13], uint32(int32(e.Round)))
	binary.BigEndian.PutUint32(header[13:17], uint32(len(e.Payload)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := w.Write(e.Payload); err != nil {
		return fmt.Errorf("transport: write payload: %w", err)
	}
	return nil
}

// maxPayload bounds a single envelope payload (64 MiB) to fail fast on
// corrupt length prefixes rather than allocating unbounded memory.
const maxPayload = 64 << 20

// readEnvelope deserializes one envelope from r.
func readEnvelope(r io.Reader) (*Envelope, error) {
	header := make([]byte, envelopeHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(header[13:17])
	if n > maxPayload {
		return nil, fmt.Errorf("transport: payload length %d exceeds limit %d", n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return &Envelope{
		Kind:    Kind(header[0]),
		From:    int(int32(binary.BigEndian.Uint32(header[1:5]))),
		To:      int(int32(binary.BigEndian.Uint32(header[5:9]))),
		Round:   int(int32(binary.BigEndian.Uint32(header[9:13]))),
		Payload: payload,
	}, nil
}
