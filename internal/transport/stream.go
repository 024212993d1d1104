package transport

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// This file is the distributor's one blob wire. Every per-file route
// (fileRoutes) carries its scalar parameters in the query string and
// the password — plus, on upload, the optional encryption key — in
// base64 headers (X-Password, X-Encrypt-Key), so arbitrary bytes
// survive HTTP header rules and never land in server access logs as
// query noise. A blob is always raw octets: the upload body feeds
// core.UploadStream, the update_chunk body is the new chunk, and every
// read answers with the bytes themselves. JSON carries only
// control-plane documents (accounts, admin, stats, health, tables).
//
// Bodies the server buffers keep a cap: maxControlBody for JSON,
// maxBlobBody for an update_chunk payload and an upload's decoy block,
// both answered with 413 past it. The file itself is never buffered —
// /v1/upload streams the request body into the windowed pipeline and
// /v1/stream/file streams core.GetFileTo into the response — so those
// two bodies are unbounded; every buffered response stays within the
// client's maxRespRead.

const (
	headerPassword   = "X-Password"
	headerEncryptKey = "X-Encrypt-Key"
	// headerMisleadBytes gives the size of the decoy block at the head
	// of an upload body (see encodeDecoyFrame).
	headerMisleadBytes = "X-Mislead-Bytes"
)

// blobHeaders are the request headers of the per-file wire; a
// ShardProxy forwards exactly these.
var blobHeaders = []string{headerPassword, headerEncryptKey, headerMisleadBytes, "Content-Type"}

func headerB64(r *http.Request, name string) ([]byte, error) {
	v := r.Header.Get(name)
	if v == "" {
		return nil, nil
	}
	b, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return nil, fmt.Errorf("bad %s header: %w", name, err)
	}
	return b, nil
}

// encodeDecoyFrame frames whole decoy records
// (core.UploadOptions.MisleadLines) as a uvarint length followed by the
// record's bytes, one after another.
func encodeDecoyFrame(lines [][]byte) []byte {
	var block []byte
	for _, l := range lines {
		block = binary.AppendUvarint(block, uint64(len(l)))
		block = append(block, l...)
	}
	return block
}

// decodeDecoyFrame splits a decoy block back into its records. It is
// strict: a truncated, oversized or non-minimal length, a record that
// overruns the block, or trailing bytes that do not form a whole record
// fail with core.ErrConfig — never a silent partial decode, and every
// accepted block is exactly the encoding of what it decodes to.
func decodeDecoyFrame(block []byte) ([][]byte, error) {
	var lines [][]byte
	for len(block) > 0 {
		n, k := binary.Uvarint(block)
		if k <= 0 || k != len(binary.AppendUvarint(nil, n)) {
			return nil, fmt.Errorf("%w: decoy block: malformed record length", core.ErrConfig)
		}
		block = block[k:]
		if n > uint64(len(block)) {
			return nil, fmt.Errorf("%w: decoy block: %d-byte record overruns the %d bytes left", core.ErrConfig, n, len(block))
		}
		lines = append(lines, block[:n:n])
		block = block[n:]
	}
	return lines, nil
}

// ---- Server side ----

// readDecoyBlock reads the decoy records framed at the head of an upload
// body; X-Mislead-Bytes gives the block size, and no header means none.
func readDecoyBlock(r *http.Request) ([][]byte, error) {
	v := r.Header.Get(headerMisleadBytes)
	if v == "" {
		return nil, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad %s header %q", core.ErrConfig, headerMisleadBytes, v)
	}
	if n > maxBlobBody {
		return nil, &http.MaxBytesError{Limit: maxBlobBody}
	}
	block := make([]byte, n)
	if _, err := io.ReadFull(r.Body, block); err != nil {
		return nil, fmt.Errorf("%w: decoy block: %v", core.ErrConfig, err)
	}
	return decodeDecoyFrame(block)
}

// optInt parses an optional integer query parameter; absent means 0.
func optInt(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return n, nil
}

// upload is POST /v1/upload: the request body is the file, preceded by
// the decoy block when X-Mislead-Bytes is set.
func (s *DistributorServer) upload(w http.ResponseWriter, r *http.Request) {
	a, ok := parseFileArgs(w, r, "pl")
	if !ok {
		return
	}
	opts := core.UploadOptions{NoParity: a.q.Get("noParity") == "1"}
	assurance, errA := optInt(a.q, "assurance")
	replicas, errR := optInt(a.q, "replicas")
	var errF error
	if v := a.q.Get("misleadFraction"); v != "" {
		if opts.MisleadFraction, errF = strconv.ParseFloat(v, 64); errF != nil {
			errF = fmt.Errorf("bad misleadFraction: %w", errF)
		}
	}
	key, errK := headerB64(r, headerEncryptKey)
	if err := errors.Join(errA, errR, errF, errK); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.Assurance, opts.Replicas, opts.EncryptKey = raid.Level(assurance), replicas, key
	lines, err := readDecoyBlock(r)
	if err != nil {
		bodyError(w, err)
		return
	}
	opts.MisleadLines = lines
	info, err := s.d.UploadStream(a.client, a.password, a.filename, r.Body, privacy.Level(a.n[0]), opts)
	writeResult(w, info, err)
}

// countingWriter tracks whether any payload byte reached the response.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// streamFile is GET /v1/stream/file: the response body is the file.
// Chunked transfer encoding carries an implicit end-of-stream marker, so
// a failure after bytes have gone out aborts the connection instead of
// letting a truncated prefix masquerade as a complete body — the client
// observes a transport error, exactly like a mid-body network failure.
func (s *DistributorServer) streamFile(w http.ResponseWriter, r *http.Request) {
	a, ok := parseFileArgs(w, r)
	if !ok {
		return
	}
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.d.GetFileTo(cw, a.client, a.password, a.filename); err != nil {
		if cw.n == 0 {
			http.Error(w, err.Error(), coreStatus(err))
			return
		}
		panic(http.ErrAbortHandler)
	}
}

// ---- Client side ----

// fileRequest builds a per-file request: client, filename and q in the
// query string, the password in X-Password, body as raw octets.
func (c *Client) fileRequest(method, path, client, password, filename string, q url.Values, body io.Reader) (*http.Request, error) {
	if q == nil {
		q = url.Values{}
	}
	q.Set("client", client)
	q.Set("filename", filename)
	req, err := http.NewRequest(method, c.base+path+"?"+q.Encode(), body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(password)))
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	return req, nil
}

// UploadFrom streams a file to the distributor from r without buffering
// it: the reader feeds the request body directly and the distributor
// commits stripe-by-stripe with bounded memory at both ends. Decoy
// records (opts.MisleadLines) travel framed at the head of the body.
// Like every mutation, it is never retried at this layer — a body is
// not rewindable and a request that died on the wire may still have
// been applied.
func (c *Client) UploadFrom(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	q := url.Values{"pl": {strconv.Itoa(int(pl))}}
	if opts.Assurance != 0 {
		q.Set("assurance", strconv.Itoa(int(opts.Assurance)))
	}
	if opts.NoParity {
		q.Set("noParity", "1")
	}
	if opts.MisleadFraction != 0 {
		q.Set("misleadFraction", strconv.FormatFloat(opts.MisleadFraction, 'g', -1, 64))
	}
	if opts.Replicas != 0 {
		q.Set("replicas", strconv.Itoa(opts.Replicas))
	}
	var block []byte
	if len(opts.MisleadLines) > 0 {
		block = encodeDecoyFrame(opts.MisleadLines)
		r = io.MultiReader(bytes.NewReader(block), r)
	}
	req, err := c.fileRequest(http.MethodPost, "/v1/upload", client, password, filename, q, r)
	if err != nil {
		return core.FileInfo{}, err
	}
	if block != nil {
		req.Header.Set(headerMisleadBytes, strconv.Itoa(len(block)))
	}
	if len(opts.EncryptKey) > 0 {
		req.Header.Set(headerEncryptKey, base64.StdEncoding.EncodeToString(opts.EncryptKey))
	}
	payload, err := c.roundTrip(req)
	if err != nil {
		return core.FileInfo{}, err
	}
	var info core.FileInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return core.FileInfo{}, err
	}
	return info, nil
}

// GetFileTo streams a whole file from the distributor into w. The body
// is copied through a fixed-size buffer — deliberately not subject to
// maxRespRead, which caps buffered responses, not the file path. A
// connection abort mid-body (the server's mid-stream failure signal)
// surfaces as an error with the prefix byte count; the transfer is not
// retried, since w has already consumed bytes that a replay would
// duplicate.
func (c *Client) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	req, err := c.fileRequest(http.MethodGet, "/v1/stream/file", client, password, filename, nil, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, &netError{fmt.Errorf("transport: /v1/stream/file: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, statusToCoreError(resp.StatusCode, string(msg))
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, &netError{fmt.Errorf("transport: /v1/stream/file: truncated after %d bytes: %w", n, err)}
	}
	return n, nil
}
