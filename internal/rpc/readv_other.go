//go:build !linux

package rpc

import "io"

// vectoredReader is nil off Linux: a landing reads one piece at a time.
func vectoredReader(io.Reader) func(pieces [][]byte) error { return nil }
