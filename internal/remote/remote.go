// Package remote provides network ingestion for a join system: a server
// accepts TCP connections (package transport) and turns each into a tuple
// source for fastjoin.Options.Sources, and a client streams a workload to
// such a server. This splits tuple production and join processing across
// processes/hosts the way the paper's deployment separates Kafka producers
// from the Storm cluster.
package remote

import (
	"fmt"

	"fastjoin"
	"fastjoin/internal/stream"
	"fastjoin/internal/transport"
	"fastjoin/internal/workload"
)

// tupleStream is the transport stream name carrying tuples.
const tupleStream = "tuples"

func init() {
	// Payload types that may travel inside tuples.
	transport.RegisterValue(stream.Tuple{})
	transport.RegisterValue(workload.OrderPayload{})
	transport.RegisterValue(workload.TrackPayload{})
	transport.RegisterValue(workload.QueryPayload{})
	transport.RegisterValue(workload.ClickPayload{})
}

// AcceptSources waits for n client connections on the server and returns
// one TupleSource per client. Each source yields the client's tuples in
// arrival order and ends when the client closes its connection. The
// returned closer shuts every accepted connection.
func AcceptSources(srv *transport.Server, n int) ([]fastjoin.TupleSource, func(), error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("remote: need at least one ingestion connection")
	}
	conns := make([]transport.Conn, 0, n)
	closer := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	sources := make([]fastjoin.TupleSource, 0, n)
	for i := 0; i < n; i++ {
		conn, err := srv.Accept()
		if err != nil {
			closer()
			return nil, nil, fmt.Errorf("remote: accept ingestion %d: %w", i, err)
		}
		conns = append(conns, conn)
		sources = append(sources, connSource(conn))
	}
	return sources, closer, nil
}

// connSource adapts one connection to a pull-based tuple source. The spout
// goroutine blocks in Recv between chunks; EOF or any error ends the
// source for good (there is no reconnect). Tuples arrive packed in
// transport.Chunks (the wire shape StreamTuples sends); a chunk is
// unpacked in order across successive pulls.
func connSource(conn transport.Conn) fastjoin.TupleSource {
	done := false
	var queued []stream.Tuple // remainder of the chunk being unpacked
	return func() (fastjoin.Tuple, bool) {
		if done {
			return fastjoin.Tuple{}, false
		}
		for {
			if len(queued) > 0 {
				t := queued[0]
				queued = queued[1:]
				return t, true
			}
			m, err := conn.Recv()
			if err != nil {
				done = true
				return fastjoin.Tuple{}, false
			}
			if m.Stream != tupleStream {
				continue // ignore non-tuple traffic
			}
			if c, ok := m.Value.(transport.Chunk); ok {
				for _, raw := range c.Values {
					if t, ok := raw.(stream.Tuple); ok {
						queued = append(queued, t)
					}
				}
			}
		}
	}
}

// StreamTuples dials a join server and pushes the source's tuples until it
// is exhausted, then closes the connection. Tuples travel packed in
// transport.Chunks of DefaultChunkSize, so the gob pipe encodes each group
// as a single message. A send error ends the stream; the connection is
// not redialled. It returns how many tuples were sent.
func StreamTuples(addr string, src fastjoin.TupleSource) (int, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	const size = transport.DefaultChunkSize
	sent := 0
	chunk := transport.Chunk{Values: make([]any, 0, size)}
	flush := func() error {
		if len(chunk.Values) == 0 {
			return nil
		}
		err := conn.Send(transport.Message{Stream: tupleStream, Value: chunk})
		if err != nil {
			return fmt.Errorf("remote: send after %d tuples: %w", sent, err)
		}
		sent += len(chunk.Values)
		// Fresh slice: the gob encoder may still reference the old one.
		chunk.Values = make([]any, 0, size)
		return nil
	}
	for {
		t, ok := src()
		if !ok {
			return sent, flush()
		}
		chunk.Values = append(chunk.Values, t)
		if len(chunk.Values) >= size {
			if err := flush(); err != nil {
				return sent, err
			}
		}
	}
}
