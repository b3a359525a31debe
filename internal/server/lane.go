package server

import (
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"greenfpga/internal/telemetry"
)

// bodyPrealloc caps the buffer readBody allocates up front from an
// announced Content-Length. It covers the bodies the compute endpoints
// are sent; a longer body grows the buffer as its bytes arrive.
const bodyPrealloc = 16 << 10

// requestBody is a POST body as readBody read it. It replaces r.Body
// for the handler: Read replays the bytes and then the read's own
// error, so the strict decoder sees what the live body gave it.
type requestBody struct {
	raw  []byte // the route's path, a NUL, then the body
	data []byte // the body: raw past the path and NUL
	off  int
	err  error // the read's error; nil ends the replay with io.EOF
	// digest is sha256(raw), the digest index's key; the hit lane
	// computes it only when the read succeeded.
	digest [sha256.Size]byte
	hit    *cachedResponse // the hit lane's answer, for writeHit
}

// indexKey is the body's digest index key, or nil when the read failed
// and the body must not be indexed.
func (b *requestBody) indexKey() []byte {
	if b.err != nil {
		return nil
	}
	return b.digest[:]
}

// Read implements io.Reader.
func (b *requestBody) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	return 0, io.EOF
}

// Close implements io.Closer.
func (b *requestBody) Close() error { return nil }

// readBody reads a POST body once, ahead of the limiter and the
// deadline, within maxBody and a read deadline of the route's timeout
// d, and leaves r.Body replaying what it read. The read is timed as the
// decode stage. It reports whether it answered the request: a body
// still incomplete at the read deadline is answered here with the 504
// deadline_exceeded envelope.
//
// The read deadline is never lifted here. net/http lifts it itself when
// the body reaches EOF, before it starts the background read that
// watches for the client hanging up (which would otherwise fail on the
// deadline and cancel the request context mid-compute). A read that
// failed leaves it set, so net/http's post-handler drain of the unread
// rest is bounded too: after a stalled body it fails at once instead
// of waiting on the client.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, path string, d time.Duration) (*requestBody, bool) {
	start := time.Now()
	if d > 0 && r.ContentLength != 0 {
		// A writer without deadlines (an httptest recorder) reads
		// unbounded, as before.
		_ = http.NewResponseController(w).SetReadDeadline(start.Add(d))
	}
	raw, err := readAfter(path, http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	rb := &requestBody{raw: raw, data: raw[len(path)+1:], err: err}
	r.Body = rb
	telemetry.FromContext(r.Context()).Add("decode", time.Since(start))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.onDeadline(w, r)
		return rb, true
	}
	return rb, false
}

// readAfter reads body to its end into one buffer that begins with
// path and a NUL, so one Sum256 over the buffer digests (path, body)
// without a hash object. The buffer is sized for an announced length
// n, at most bodyPrealloc (plus the byte that lets the read meeting EOF
// run without growing), and grows like io.ReadAll past it or without
// one: a client that announces a large body and stalls pins no more
// than bodyPrealloc. A read error other than EOF is returned with what
// was read before it.
func readAfter(path string, body io.Reader, n int64) ([]byte, error) {
	size := 512
	if n > 0 {
		size = int(min(n, bodyPrealloc)) + 1
	}
	b := make([]byte, 0, len(path)+1+size)
	b = append(append(b, path...), 0)
	for {
		m, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// hitLane answers a compute request whose body's digest names a result
// the LRU still holds, through hit (the cached-bytes write behind its
// own recovery and fault wrap): a repeated body skips decode,
// normalization, keying, the limiter and the deadline goroutine. It
// reports whether it answered; otherwise the full path decodes the
// body readBody read. The digest and the index lookup are timed as the
// decode stage.
func (s *Server) hitLane(w http.ResponseWriter, r *http.Request, rb *requestBody, hit http.Handler) bool {
	if rb.err != nil {
		return false
	}
	start := time.Now()
	rb.digest = sha256.Sum256(rb.raw)
	v, ok := s.digests.Get(string(rb.digest[:]))
	if ok {
		// Probe: when the result was evicted, the full path's lookup
		// is the one that counts.
		v, ok = s.results.Probe(v.(string))
	}
	telemetry.FromContext(r.Context()).Add("decode", time.Since(start))
	if !ok {
		return false
	}
	rb.hit = v.(*cachedResponse)
	hit.ServeHTTP(w, r)
	return true
}

// writeHit writes the hit lane's answer.
func (s *Server) writeHit(w http.ResponseWriter, r *http.Request) {
	s.writeCached(w, r, "hit", r.Body.(*requestBody).hit)
}

// index records that the body r carries keys to the result cr, which
// the full path answered from the LRU; a body whose read failed records
// nothing.
func (s *Server) index(r *http.Request, cr *cachedResponse) {
	if digest := r.Body.(*requestBody).indexKey(); digest != nil {
		s.digests.Put(string(digest), cr.key)
	}
}
