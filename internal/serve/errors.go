package serve

import (
	"errors"
	"io"
	"net"
	"syscall"

	"repro/internal/predictor"
)

// IsRetryable classifies a client-side failure: true for transport-level
// errors a fresh connection may cure (dial refused/reset, timeouts,
// connections dropped mid-frame), false for errors that are properties
// of the request or the stream contents (server-reported RemoteError,
// protocol violations, unusable snapshots) where retrying the same bytes
// cannot succeed.
//
// Hardened clients retry only retryable failures; fatal ones surface
// immediately. A keyed session's recovery is to redial, reopen the key
// and call ClientSession.Replay again, which continues from the cursor
// and tallies the reopen returned.
//
// A load-shed rejection (BusyError) is retryable by definition: the
// server did not apply the batch. A corrupt frame (ErrCorrupt) is NOT —
// it wraps ErrProtocol, because a corrupt response leaves the request's
// fate unknown and blindly resending could double-apply; only a keyed
// reopen, which returns the server's authoritative cursor, may recover
// from it.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrProtocol) || errors.Is(err, predictor.ErrSnapshot) {
		return false
	}
	if errors.Is(err, ErrIO) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
