package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fastjoin/internal/stream"
)

// encodeStream gob-encodes msgs the way one tcpConn's Send calls would
// put them on the wire.
func encodeStream(tb testing.TB, msgs ...Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range msgs {
		if err := enc.Encode(&msgs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// tupleChunk is a tuple message in the shape network ingestion sends.
func tupleChunk(n int) Message {
	c := Chunk{Values: make([]any, n)}
	for i := range c.Values {
		c.Values[i] = stream.Tuple{Side: stream.Side(i % 2), Key: stream.Key(i % 5), Seq: uint64(i), EventTime: int64(1000 + i)}
	}
	return Message{FromComp: "client", Stream: "tuples", Value: c}
}

// recvAll feeds b through an in-memory connection into a tcpConn and
// calls Recv until it fails. Every successful Recv consumes at least one
// byte (a gob length prefix), so more than len(b) messages is a bug; a
// Recv that neither returns nor fails within the deadline is a hang.
func recvAll(tb testing.TB, b []byte) ([]Message, error) {
	tb.Helper()
	client, server := net.Pipe()
	go func() {
		// Returns early with io.ErrClosedPipe once the reader gives up.
		_, _ = client.Write(b)
		client.Close()
	}()
	conn := newTCPConn(server)
	defer conn.Close()

	type result struct {
		msgs []Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		var msgs []Message
		for i := 0; i <= len(b); i++ {
			m, err := conn.Recv()
			if err != nil {
				done <- result{msgs, err}
				return
			}
			msgs = append(msgs, m)
		}
		done <- result{msgs, errors.New("more messages than input bytes")}
	}()
	select {
	case r := <-done:
		return r.msgs, r.err
	case <-time.After(10 * time.Second):
		tb.Fatalf("Recv hung on %d input bytes", len(b))
		return nil, nil
	}
}

func TestTCPRecvRejectsBadInput(t *testing.T) {
	whole := encodeStream(t, tupleChunk(8))
	if msgs, err := recvAll(t, whole); !errors.Is(err, io.EOF) || len(msgs) != 1 {
		t.Fatalf("whole chunk: %d messages, err %v; want 1, EOF", len(msgs), err)
	}
	if msgs, err := recvAll(t, nil); !errors.Is(err, io.EOF) || len(msgs) != 0 {
		t.Errorf("empty input: %d messages, err %v; want 0, EOF", len(msgs), err)
	}
	// A truncated message ends the connection like a peer close.
	if msgs, err := recvAll(t, whole[:len(whole)-3]); !errors.Is(err, io.EOF) || len(msgs) != 0 {
		t.Errorf("truncated chunk: %d messages, err %v; want 0, EOF", len(msgs), err)
	}
	// A length prefix of 2^64-1 must be refused before any allocation.
	oversize := []byte{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if _, err := recvAll(t, oversize); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("oversized length: err %v, want a decode error", err)
	}
	// A value message naming a type id that was never defined.
	badType := []byte{0x02, 0xff, 0xc8}
	if _, err := recvAll(t, badType); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("undefined type id: err %v, want a decode error", err)
	}
}

// FuzzTCPRecv checks that the gob parser behind tcpConn.Recv turns any
// byte stream into messages followed by an error: no panic, no hang, and
// no message that consumed no input.
func FuzzTCPRecv(f *testing.F) {
	whole := encodeStream(f, tupleChunk(8))
	f.Add(whole)
	for _, n := range []int{1, len(whole) / 4, len(whole) / 2, 3 * len(whole) / 4, len(whole) - 1} {
		f.Add(whole[:n])
	}
	f.Add(encodeStream(f, tupleChunk(3), Message{Stream: "noise", Value: 42}, tupleChunk(1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := recvAll(t, b); err == nil {
			t.Fatal("Recv loop ended without an error")
		}
	})
}
