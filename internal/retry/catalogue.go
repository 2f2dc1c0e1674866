package retry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Header carries a Row's code on an error response. The client switches
// on the code — never on the status text or the body — to reconstitute
// the sentinel on its side of the wire.
const Header = "X-Oiraid-Err"

// Row is one line of an error catalogue: how a sentinel crosses the wire
// and whether the client should try again.
type Row struct {
	// Err is the sentinel, matched with errors.Is. A nil Err marks the
	// table's default row, which every otherwise unmatched error takes.
	Err error
	// Code is the Header value.
	Code string
	// Status is the HTTP status the server answers with.
	Status int
	// Retryable tells the client's retry loop (and breaker) that the
	// condition may pass.
	Retryable bool
}

// Catalogue is an ordered error table used in both directions: a server
// encodes an error with the first row it errors.Is, a client decodes the
// code back into that row's sentinel. A sentinel that wraps another must
// precede it.
type Catalogue []Row

// Encode returns the first row err matches. Without a match (and without
// a default row) it returns a bare 500 with no code.
func (c Catalogue) Encode(err error) Row {
	for _, r := range c {
		if r.Err == nil || errors.Is(err, r.Err) {
			return r
		}
	}
	return Row{Status: http.StatusInternalServerError}
}

// Write renders err as row's response: the code header, the status, and
// err's text as the body.
func (r Row) Write(w http.ResponseWriter, err error) {
	if r.Code != "" {
		w.Header().Set(Header, r.Code)
	}
	http.Error(w, err.Error(), r.Status)
}

// Decode reads an error response back into the triple a Do attempt
// reports: an error wrapping the coded row's sentinel, whether it is worth
// retrying, and the peer's Retry-After. A response without a known code
// (a proxy, a panic middleware, the mux's own 405) maps by status alone:
// 429 and the gateway statuses 502/503/504 are retryable, everything else
// is terminal.
func (c Catalogue) Decode(resp *http.Response) (retryAfter time.Duration, retryable bool, err error) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	err = errors.New(strings.TrimSuffix(fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(body)), ": "))
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	if code := resp.Header.Get(Header); code != "" {
		for _, r := range c {
			if r.Code != code {
				continue
			}
			if r.Err != nil {
				err = fmt.Errorf("%w (%v)", r.Err, err)
			}
			return retryAfter, r.Retryable, err
		}
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		retryable = true
	}
	return retryAfter, retryable, err
}
