//go:build race

package server

func init() { kernelStride = 9973 }
