package httpstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"mbavf/internal/store/backend"
	"mbavf/internal/wire"
)

// maxUploadBytes bounds one artifact body, uploaded or fetched whole;
// the largest real artifact is single-digit megabytes, so a gigabyte
// cap only stops abuse.
const maxUploadBytes = 1 << 30

// Server exposes any backend over the HTTP artifact protocol. Mounted
// on mbavf-serve, it turns one process's disk store into the fleet's
// shared store.
type Server struct {
	b backend.Interface
}

// NewServer wraps b in the protocol handlers.
func NewServer(b backend.Interface) *Server { return &Server{b: b} }

// Mount registers the protocol routes on mux. Servers with their own
// middleware (draining, metrics) register the individual handlers
// instead.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET "+Prefix+"/artifacts/{key}", s.HandleGet)
	mux.HandleFunc("PUT "+Prefix+"/artifacts/{key}", s.HandlePut)
	mux.HandleFunc("DELETE "+Prefix+"/artifacts/{key}", s.HandleDelete)
	mux.HandleFunc("GET "+Prefix+"/catalog", s.HandleCatalog)
}

// httpError writes a plain-text error; artifact bodies are binary, so
// errors do not masquerade as payloads.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// pathKey extracts and validates the {key} path segment.
func pathKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if err := backend.CheckKey(key); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return key, true
}

// parseRange parses a single "bytes=a-b" range (both bounds explicit —
// the only form the client emits). ok reports whether the header was a
// well-formed single range; malformed or unsupported ranges are served
// the whole blob per RFC 9110's may-ignore rule.
func parseRange(h string) (off, end int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	lo, hi, found := strings.Cut(spec, "-")
	if !found || lo == "" || hi == "" {
		return 0, 0, false
	}
	off, err1 := strconv.ParseInt(lo, 10, 64)
	end, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || off < 0 || end < off {
		return 0, 0, false
	}
	return off, end, true
}

// HandleGet serves GET and HEAD for one artifact, honoring single-range
// Range headers with 206 responses. Bodies carry X-Mbavf-Checksum (the
// sha256 of the bytes as sent) so the client can detect transport
// damage and retry.
func (s *Server) HandleGet(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	info, err := s.b.Stat(ctx, key)
	if errors.Is(err, backend.ErrNotFound) {
		httpError(w, http.StatusNotFound, "artifact %s not found", key)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("ETag", `"`+info.ETag+`"`)
	w.Header().Set(modTimeHeader, strconv.FormatInt(info.ModTime.UnixNano(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	if rng := r.Header.Get("Range"); rng != "" {
		off, end, ok := parseRange(rng)
		if ok {
			if off >= info.Bytes {
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", info.Bytes))
				httpError(w, http.StatusRequestedRangeNotSatisfiable, "range %s outside %d-byte artifact", rng, info.Bytes)
				return
			}
			if end >= info.Bytes {
				end = info.Bytes - 1
			}
			data, err := s.b.ReadSection(ctx, key, off, end-off+1)
			if errors.Is(err, backend.ErrNotFound) {
				httpError(w, http.StatusNotFound, "artifact %s not found", key)
				return
			}
			if err != nil {
				httpError(w, http.StatusInternalServerError, "%v", err)
				return
			}
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, end, info.Bytes))
			wire.WriteBytes(w, http.StatusPartialContent, data)
			return
		}
		// Unsupported range form: fall through to the whole blob (200),
		// which the client handles by slicing locally.
	}
	data, err := s.b.Get(ctx, key)
	if errors.Is(err, backend.ErrNotFound) {
		httpError(w, http.StatusNotFound, "artifact %s not found", key)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wire.WriteBytes(w, http.StatusOK, data)
}

// HandlePut stores an uploaded artifact. A body over maxUploadBytes is
// 413. When the request carries X-Mbavf-Checksum, the body must hash to
// it — a mismatch means the bytes were damaged in transit, answered 400
// naming "checksum" so the client retries with a fresh copy.
func (s *Server) HandlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	body, err := wire.ReadBody(w, r, maxUploadBytes)
	if err != nil {
		var be *wire.BodyError
		errors.As(err, &be)
		httpError(w, be.Status, "%v", err)
		return
	}
	if err := s.b.Put(r.Context(), key, body); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// HandleDelete removes one artifact; ?quarantine=1 keeps its bytes out
// of the namespace but inspectable.
func (s *Server) HandleDelete(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	var err error
	if r.URL.Query().Get("quarantine") == "1" {
		err = s.b.Quarantine(ctx, key)
	} else {
		err = s.b.Delete(ctx, key)
	}
	if err != nil && !errors.Is(err, backend.ErrNotFound) {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// HandleCatalog lists the stored artifacts as JSON, tagged with an ETag
// derived from every entry's (key, etag) pair: any artifact change
// changes it. If-None-Match answers 304 with no body, so workers can
// poll the catalog cheaply.
func (s *Server) HandleCatalog(w http.ResponseWriter, r *http.Request) {
	kis, err := s.b.List(r.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sort.Slice(kis, func(i, j int) bool { return kis[i].Key < kis[j].Key })
	h := sha256.New()
	doc := catalogDoc{Artifacts: make([]catalogEntry, 0, len(kis))}
	for _, ki := range kis {
		fmt.Fprintf(h, "%s=%s\n", ki.Key, ki.ETag)
		doc.Artifacts = append(doc.Artifacts, catalogEntry{
			Key: ki.Key, Bytes: ki.Bytes, ModTime: ki.ModTime.UnixNano(), ETag: ki.ETag,
		})
	}
	etag := `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}
