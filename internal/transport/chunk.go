package transport

import "encoding/gob"

// Chunk batches several payload values of one logical stream into a
// single Message.Value, so the pipe gob-encodes and writes the whole
// group as ONE message — amortizing the per-message gob and syscall
// overhead the same way the engine's batched data plane amortizes
// channel sends. Values preserve send order; element types must be
// registered with RegisterValue like any other payload.
type Chunk struct {
	Values []any
}

func init() { gob.Register(Chunk{}) }

// DefaultChunkSize is the value-count cap per Chunk that
// remote.StreamTuples sends.
const DefaultChunkSize = 64
