package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/oiraid/oiraid/internal/object"
)

// ErrNonRetryable reports an object PUT that failed with a condition the
// client would normally retry (overload shed, transient 503, transport
// error) but could not, because the request body streamed from a
// non-rewindable reader and re-sending would require replaying bytes the
// client no longer has. The caller owns the retry decision: re-issue the
// PUT with a fresh reader. A body that can be re-read in place (PutObject)
// or is no larger than maxBufferedPut is retried transparently; only a
// larger stream can surface this error.
var ErrNonRetryable = errors.New("server: streaming body consumed, not retrying")

// maxBufferedPut is the largest object/part body the client buffers in
// memory to make the PUT replayable across retries (8 MiB) when the reader
// offers no way to re-read it. Larger ones stream straight from the reader
// in a single attempt.
const maxBufferedPut = 8 << 20

// objectsPath builds the URL path of an object, escaping each key
// segment while preserving the key's internal slashes.
func objectsPath(bucket, key string) string {
	p := "/v1/buckets/" + url.PathEscape(bucket) + "/objects"
	if key != "" {
		segs := strings.Split(key, "/")
		for i, s := range segs {
			segs[i] = url.PathEscape(s)
		}
		p += "/" + strings.Join(segs, "/")
	}
	return p
}

// checkKey rejects an empty object key client-side: objectsPath would
// build the bucket's LIST path and the server's trailing-slash redirect
// would quietly turn the request into a GET.
func checkKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty object key", object.ErrBadName)
	}
	return nil
}

// userMetaHeaders renders user metadata as x-oiraid-meta-* headers.
func userMetaHeaders(meta map[string]string) map[string]string {
	if len(meta) == 0 {
		return nil
	}
	hdr := make(map[string]string, len(meta))
	for k, v := range meta {
		hdr[userMetaPrefix+k] = v
	}
	return hdr
}

// MakeBucket creates a bucket.
func (c *Client) MakeBucket(name string) error {
	return c.MakeBucketCtx(context.Background(), name)
}

// MakeBucketCtx is MakeBucket bounded by ctx.
func (c *Client) MakeBucketCtx(ctx context.Context, name string) error {
	_, err := c.doCtx(ctx, http.MethodPut, "/v1/buckets/"+url.PathEscape(name), nil)
	return err
}

// RemoveBucket deletes an empty bucket.
func (c *Client) RemoveBucket(name string) error {
	return c.RemoveBucketCtx(context.Background(), name)
}

// RemoveBucketCtx is RemoveBucket bounded by ctx.
func (c *Client) RemoveBucketCtx(ctx context.Context, name string) error {
	_, err := c.doCtx(ctx, http.MethodDelete, "/v1/buckets/"+url.PathEscape(name), nil)
	return err
}

// ListBuckets returns every bucket on the server.
func (c *Client) ListBuckets() ([]object.BucketInfo, error) {
	return c.ListBucketsCtx(context.Background())
}

// ListBucketsCtx is ListBuckets bounded by ctx.
func (c *Client) ListBucketsCtx(ctx context.Context) ([]object.BucketInfo, error) {
	var bs []object.BucketInfo
	err := c.callJSON(ctx, http.MethodGet, "/v1/buckets", nil, nil, &bs, "buckets")
	return bs, err
}

// PutObject stores size bytes from r as bucket/key. When r is an
// io.Seeker and an io.ReaderAt (a bytes.Reader, a file) the body is sent
// from its current offset with no copy, whatever its size, and each attempt
// re-reads it in place; otherwise bodies up to maxBufferedPut are buffered.
// Either way transient failures (429/503/504, transport errors) retry
// transparently and r is left size bytes further on. Larger bodies that
// cannot be re-read stream in one attempt and a retryable failure surfaces
// wrapped in ErrNonRetryable instead of silently re-sending a
// half-consumed reader.
func (c *Client) PutObject(bucket, key string, r io.Reader, size int64, meta map[string]string) (object.Info, error) {
	return c.PutObjectCtx(context.Background(), bucket, key, r, size, meta)
}

// PutObjectCtx is PutObject bounded by ctx.
func (c *Client) PutObjectCtx(ctx context.Context, bucket, key string, r io.Reader, size int64, meta map[string]string) (object.Info, error) {
	if err := checkKey(key); err != nil {
		return object.Info{}, err
	}
	return c.putBody(ctx, objectsPath(bucket, key), r, size, userMetaHeaders(meta))
}

// putBody implements the in-place, buffered or single-shot PUT protocol
// shared by PutObject and UploadPart. An in-place body is read by ReadAt,
// never by seeking r back: net/http may still be reading one attempt's body
// when the next starts.
func (c *Client) putBody(ctx context.Context, path string, r io.Reader, size int64, hdr map[string]string) (object.Info, error) {
	var info object.Info
	if size < 0 {
		return info, fmt.Errorf("%w: negative size %d", object.ErrBadName, size)
	}
	var out []byte
	rq := &call{method: http.MethodPut, path: path, hdr: hdr, sink: buffer(&out), size: size}
	at, start, err := inPlaceBody(r, size)
	switch {
	case err != nil:
		return info, err
	case at != nil:
		rq.at, rq.start = at, start
	case size <= maxBufferedPut:
		rq.body = make([]byte, size)
		if _, err := io.ReadFull(r, rq.body); err != nil {
			return info, fmt.Errorf("server: reading put body: %w", err)
		}
	default:
		rq.stream = r
	}
	if err := c.run(ctx, rq); err != nil {
		return info, err
	}
	if err := json.Unmarshal(out, &info); err != nil {
		return info, fmt.Errorf("server: decode put response: %w", err)
	}
	return info, nil
}

// inPlaceBody returns r as an io.ReaderAt and the offset its body starts at
// when size bytes can be re-read where they lie, leaving r where reading
// them would have; a reader that holds fewer is refused. A nil at means
// buffer or stream: r cannot seek (an *os.File on a pipe has the method and
// fails it), or the body is empty — net/http sends a non-nil body it cannot
// size chunked, which the server answers 411, and an empty []byte as none.
func inPlaceBody(r io.Reader, size int64) (at io.ReaderAt, start int64, err error) {
	ra, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	})
	if !ok || size == 0 {
		return nil, 0, nil
	}
	if start, err = ra.Seek(0, io.SeekCurrent); err != nil {
		return nil, 0, nil
	}
	end, err := ra.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, nil
	}
	if end-start < size {
		return nil, 0, fmt.Errorf("server: reading put body: %d of %d bytes: %w", end-start, size, io.ErrUnexpectedEOF)
	}
	if _, err := ra.Seek(start+size, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("server: reading put body: %w", err)
	}
	return ra, start, nil
}

// GetObject streams bucket/key into w and returns its Info (assembled
// from response headers). The transfer is verified against the declared
// Content-Length — a truncated body (server aborting on a mid-stream
// read error) is reported rather than silently accepted.
func (c *Client) GetObject(bucket, key string, w io.Writer) (object.Info, error) {
	info, _, err := c.GetObjectCond(context.Background(), bucket, key, "", w)
	return info, err
}

// GetObjectCtx is GetObject bounded by ctx.
func (c *Client) GetObjectCtx(ctx context.Context, bucket, key string, w io.Writer) (object.Info, error) {
	info, _, err := c.GetObjectCond(ctx, bucket, key, "", w)
	return info, err
}

// GetObjectCond is the conditional GET: with a non-empty etag it sends
// If-None-Match and, when the server answers 304 Not Modified, returns
// notModified true without writing to w. Transient failures retry as
// long as no body byte has been written yet.
func (c *Client) GetObjectCond(ctx context.Context, bucket, key, etag string, w io.Writer) (info object.Info, notModified bool, err error) {
	if err := checkKey(key); err != nil {
		return object.Info{}, false, err
	}
	rq := &call{method: http.MethodGet, path: objectsPath(bucket, key)}
	if etag != "" {
		rq.hdr = map[string]string{"If-None-Match": `"` + etag + `"`}
	}
	rq.sink = func(resp *http.Response) (bool, error) {
		info = infoFromHeaders(resp)
		if notModified = resp.StatusCode == http.StatusNotModified; notModified {
			return false, nil
		}
		n, err := io.Copy(w, resp.Body)
		if err != nil {
			// Re-issuing is safe only while no body byte has reached w.
			return n == 0, fmt.Errorf("server: object body after %d bytes: %w", n, err)
		}
		if resp.ContentLength >= 0 && n != resp.ContentLength {
			return false, fmt.Errorf("server: object body truncated: %d of %d bytes", n, resp.ContentLength)
		}
		info.Size = n
		return false, nil
	}
	err = c.run(ctx, rq)
	return info, notModified && err == nil, err
}

// infoFromHeaders reconstructs the Info fields the object endpoints
// expose as headers (ETag, size, Last-Modified, user metadata).
func infoFromHeaders(resp *http.Response) object.Info {
	info := object.Info{
		ETag: strings.Trim(resp.Header.Get("ETag"), `"`),
		Size: resp.ContentLength,
	}
	info.Modified, _ = http.ParseTime(resp.Header.Get("Last-Modified"))
	for k, vs := range resp.Header {
		lk := strings.ToLower(k)
		if strings.HasPrefix(lk, userMetaPrefix) && len(vs) > 0 {
			if info.UserMeta == nil {
				info.UserMeta = make(map[string]string)
			}
			info.UserMeta[lk[len(userMetaPrefix):]] = vs[0]
		}
	}
	return info
}

// StatObject fetches an object's Info without its data (HEAD).
func (c *Client) StatObject(bucket, key string) (object.Info, error) {
	return c.StatObjectCtx(context.Background(), bucket, key)
}

// StatObjectCtx is StatObject bounded by ctx.
func (c *Client) StatObjectCtx(ctx context.Context, bucket, key string) (object.Info, error) {
	var info object.Info
	if err := checkKey(key); err != nil {
		return info, err
	}
	err := c.run(ctx, &call{method: http.MethodHead, path: objectsPath(bucket, key), sink: func(resp *http.Response) (bool, error) {
		info = infoFromHeaders(resp)
		info.Bucket, info.Key = bucket, key
		return false, nil
	}})
	return info, err
}

// RemoveObject deletes an object.
func (c *Client) RemoveObject(bucket, key string) error {
	return c.RemoveObjectCtx(context.Background(), bucket, key)
}

// RemoveObjectCtx is RemoveObject bounded by ctx.
func (c *Client) RemoveObjectCtx(ctx context.Context, bucket, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	_, err := c.doCtx(ctx, http.MethodDelete, objectsPath(bucket, key), nil)
	return err
}

// ListObjects fetches one LIST page: up to max keys matching prefix,
// strictly after the `after` cursor. Follow page.NextAfter while
// page.Truncated to walk the whole bucket.
func (c *Client) ListObjects(bucket, prefix, after string, max int) (object.ListPage, error) {
	return c.ListObjectsCtx(context.Background(), bucket, prefix, after, max)
}

// ListObjectsCtx is ListObjects bounded by ctx.
func (c *Client) ListObjectsCtx(ctx context.Context, bucket, prefix, after string, max int) (object.ListPage, error) {
	var page object.ListPage
	q := url.Values{}
	if prefix != "" {
		q.Set("prefix", prefix)
	}
	if after != "" {
		q.Set("after", after)
	}
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	path := objectsPath(bucket, "")
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	err := c.callJSON(ctx, http.MethodGet, path, nil, nil, &page, "list")
	return page, err
}

// CreateUpload starts a multipart upload of bucket/key and returns its id.
func (c *Client) CreateUpload(bucket, key string, meta map[string]string) (string, error) {
	return c.CreateUploadCtx(context.Background(), bucket, key, meta)
}

// CreateUploadCtx is CreateUpload bounded by ctx.
func (c *Client) CreateUploadCtx(ctx context.Context, bucket, key string, meta map[string]string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", err
	}
	var resp map[string]string
	err := c.callJSON(ctx, http.MethodPost, objectsPath(bucket, key)+"?uploads", nil, userMetaHeaders(meta), &resp, "upload id")
	return resp["upload_id"], err
}

// UploadPart streams one part (1-based part numbers) under the same
// buffered-or-single-shot retry protocol as PutObject.
func (c *Client) UploadPart(bucket, key, uploadID string, part int, r io.Reader, size int64) (object.PartInfo, error) {
	return c.UploadPartCtx(context.Background(), bucket, key, uploadID, part, r, size)
}

// UploadPartCtx is UploadPart bounded by ctx.
func (c *Client) UploadPartCtx(ctx context.Context, bucket, key, uploadID string, part int, r io.Reader, size int64) (object.PartInfo, error) {
	if err := checkKey(key); err != nil {
		return object.PartInfo{}, err
	}
	path := fmt.Sprintf("%s?uploadId=%s&part=%d", objectsPath(bucket, key), url.QueryEscape(uploadID), part)
	info, err := c.putBody(ctx, path, r, size, nil)
	if err != nil {
		return object.PartInfo{}, err
	}
	return object.PartInfo{Part: part, Size: size, ETag: info.ETag}, nil
}

// CompleteUpload assembles the uploaded parts into the committed object.
func (c *Client) CompleteUpload(bucket, key, uploadID string) (object.Info, error) {
	return c.CompleteUploadCtx(context.Background(), bucket, key, uploadID)
}

// CompleteUploadCtx is CompleteUpload bounded by ctx.
func (c *Client) CompleteUploadCtx(ctx context.Context, bucket, key, uploadID string) (object.Info, error) {
	var info object.Info
	if err := checkKey(key); err != nil {
		return info, err
	}
	err := c.callJSON(ctx, http.MethodPost, objectsPath(bucket, key)+"?uploadId="+url.QueryEscape(uploadID), nil, nil, &info, "complete response")
	return info, err
}

// AbortUpload discards a multipart upload and frees its parts.
func (c *Client) AbortUpload(bucket, key, uploadID string) error {
	return c.AbortUploadCtx(context.Background(), bucket, key, uploadID)
}

// AbortUploadCtx is AbortUpload bounded by ctx.
func (c *Client) AbortUploadCtx(ctx context.Context, bucket, key, uploadID string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	_, err := c.doCtx(ctx, http.MethodDelete, objectsPath(bucket, key)+"?uploadId="+url.QueryEscape(uploadID), nil)
	return err
}
