//go:build !amd64

package bloom

// haveAVX512 is false off amd64: the Go kernel is the only one.
const haveAVX512 = false

func containsBatchAVX512(words, keys []uint64, out []bool, seed, numBlocks uint64, k uint) {
	panic("bloom: no AVX-512 kernel on this GOARCH")
}

func insertStripeAVX512(words, keys []uint64, seed, numBlocks, lo, span uint64, k uint) {
	panic("bloom: no AVX-512 kernel on this GOARCH")
}
