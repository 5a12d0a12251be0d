//go:build linux

// Package guardmem hands tests float32 slices that sit against inaccessible
// memory, so that a kernel — assembly above all — which reads or writes one
// element outside its slice faults instead of passing unnoticed (a stray read
// changes no result, so no differential test sees it).
package guardmem

import (
	"syscall"
	"testing"
	"unsafe"
)

// Float32s returns a zeroed slice of n float32s that ends at an inaccessible
// page; when n·4 is a whole number of pages it starts right after one too.
// The mapping is released when the test ends, and the test is skipped where
// the pages cannot be mapped.
func Float32s(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (4*n + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (pages+2)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("guardmem: mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	for _, guard := range [][]byte{mem[:page], mem[(pages+1)*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("guardmem: mprotect: %v", err)
		}
	}
	body := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), pages*page/4)
	return body[len(body)-n:]
}
