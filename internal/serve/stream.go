package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// ndjsonStream writes NDJSON event lines to a streaming response,
// remembering the first write error. HTTP response writes to a
// disconnected client fail without aborting the handler, so a naive
// streamer keeps encoding and flushing into a dead connection for the
// rest of the batch; tracking the first error lets every later emit
// short-circuit instead.
//
// The zero value is not usable; create one with newNDJSONStream,
// which also commits the 200 header (everything after that must be an
// event line, not a status change).
type ndjsonStream struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	err     error // first write error; the stream is dead once set
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjsonStream{enc: json.NewEncoder(w), flusher: flusher}
}

// newNDJSONPipe returns a stream over a plain io.Writer — the worker's
// results pipe — with no header commit and no flusher. Same
// first-error discipline: once a write fails, every later emit
// short-circuits without serializing, so a batch whose results post
// died stops burning CPU on lines nobody will read.
func newNDJSONPipe(w io.Writer) *ndjsonStream {
	return &ndjsonStream{enc: json.NewEncoder(w)}
}

// emit writes one event line and flushes it to the client, reporting
// whether the stream is still alive. Once a write has failed, emit
// stops touching the connection entirely.
func (s *ndjsonStream) emit(v any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = err
		return false
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return true
}
