//go:build !amd64

package gf256

// mulAdd is the generic body: there is no vector body off amd64.
func mulAdd(c byte, dst, src []byte) { mulAddGeneric(c, dst, src) }
