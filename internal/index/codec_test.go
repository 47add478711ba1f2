package index

import (
	"math/rand"
	"reflect"
	"testing"

	"approxql/internal/xmltree"
)

func randomPosting(rng *rand.Rand, n, maxGap int) []xmltree.NodeID {
	post := make([]xmltree.NodeID, n)
	cur := xmltree.NodeID(0)
	for i := range post {
		cur += xmltree.NodeID(1 + rng.Intn(maxGap))
		post[i] = cur
	}
	return post
}

// Encodings of {3, 7, 1000, 1001} in the two retired codecs — the flat
// varint stream and the 0x00 0x02 blocked varint — which must never decode.
var (
	flatVarintPosting    = []byte{0x04, 0x03, 0x04, 0xe1, 0x07, 0x01}
	blockedVarintPosting = []byte{0x00, 0x02, 0x04, 0x80, 0x01, 0x03, 0x04, 0x04, 0xe1, 0x07, 0x01}
)

// TestCodecFormat pins the wire format: a non-empty posting carries the
// 0x00 0x03 marker, the empty posting is the single byte 0x00, and both
// read back through the count and decode entry points.
func TestCodecFormat(t *testing.T) {
	post := []xmltree.NodeID{3, 7, 1000, 1001}
	data := EncodePosting(post)
	want := []byte{0x00, 0x03, 0x04, 0x80, 0x01, 0x03, 0x05, 0x04, 0x04, 0xe1, 0x03, 0x01}
	if !reflect.DeepEqual(data, want) {
		t.Fatalf("encoded posting = %#v, want %#v", data, want)
	}
	got, err := DecodePosting(data)
	if err != nil || !reflect.DeepEqual(got, post) {
		t.Fatalf("decode = %v, %v, want %v", got, err, post)
	}
	if n, err := PostingCount(data[:postingHeaderLen]); err != nil || n != len(post) {
		t.Fatalf("PostingCount = %d, %v, want %d", n, err, len(post))
	}

	empty := EncodePosting(nil)
	if len(empty) != 1 || empty[0] != 0x00 {
		t.Fatalf("encoded empty posting = %v, want [0x00]", empty)
	}
	if got, err := DecodePosting(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty decode = %v, %v", got, err)
	}
	if n, err := PostingCount(empty); err != nil || n != 0 {
		t.Fatalf("empty PostingCount = %d, %v", n, err)
	}
}

// TestEncodePostingExactSize pins the two-pass sizing: the encoder's single
// allocation is exactly the output length, with no slack capacity.
func TestEncodePostingExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		post := randomPosting(rng, rng.Intn(5*BlockSize), 1<<uint(rng.Intn(20)))
		buf := EncodePosting(post)
		if len(buf) != cap(buf) {
			t.Fatalf("encoded %d entries into len %d cap %d, want exact", len(post), len(buf), cap(buf))
		}
	}
}

// TestCodecRoundTrip drives the codec through sizes around the block
// boundaries, where the skip table changes shape, and through delta widths
// of one to four bytes.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, BlockSize - 1, BlockSize, BlockSize + 1,
		2*BlockSize - 1, 2 * BlockSize, 3*BlockSize + 17, 1000}
	for _, n := range sizes {
		// The second gap spreads the entries over the NodeID range.
		for _, maxGap := range []int{2000, (1 << 30) / max(n, 1)} {
			post := randomPosting(rng, n, maxGap)
			got, err := DecodePosting(EncodePosting(post))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if len(got) != len(post) {
				t.Fatalf("n=%d: got %d entries", n, len(got))
			}
			for i := range post {
				if got[i] != post[i] {
					t.Fatalf("n=%d: entry %d = %d, want %d", n, i, got[i], post[i])
				}
			}
		}
	}
}

// TestDecodePostingInto pins the append contract: dst contents are kept, and
// a buffer with enough capacity is reused without allocating.
func TestDecodePostingInto(t *testing.T) {
	post := []xmltree.NodeID{10, 20, 30}
	data := EncodePosting(post)

	got, err := DecodePostingInto([]xmltree.NodeID{99}, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []xmltree.NodeID{99, 10, 20, 30}) {
		t.Fatalf("DecodePostingInto = %v", got)
	}

	buf := make([]xmltree.NodeID, 0, 16)
	got, err = DecodePostingInto(buf, data)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("DecodePostingInto reallocated despite sufficient capacity")
	}
}

// TestDecodePostingUpTo checks the bounded decode against a filtered full
// decode, with bounds landing inside, between, and past blocks.
func TestDecodePostingUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		post := randomPosting(rng, rng.Intn(4*BlockSize), 50)
		data := EncodePosting(post)
		bounds := []xmltree.NodeID{0, 1, 25, 1000, 1 << 30}
		if len(post) > 0 {
			mid := post[len(post)/2]
			bounds = append(bounds, mid-1, mid, mid+1, post[len(post)-1])
		}
		for _, bound := range bounds {
			var want []xmltree.NodeID
			for _, u := range post {
				if u <= bound {
					want = append(want, u)
				}
			}
			got, err := DecodePostingUpTo(nil, data, bound)
			if err != nil {
				t.Fatalf("bound=%d: %v", bound, err)
			}
			if len(got) != len(want) {
				t.Fatalf("bound=%d: got %d entries, want %d", bound, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bound=%d: entry %d = %d, want %d", bound, i, got[i], want[i])
				}
			}
		}
	}
}

// sorted reports whether post ascends. Overflowing deltas can wrap NodeID;
// such postings are out of the encoder's domain and the fuzzers skip them.
func sorted(post []xmltree.NodeID) bool {
	for i := 1; i < len(post); i++ {
		if post[i] < post[i-1] {
			return false
		}
	}
	return true
}

// checkRoundTrip is the full-decode fuzz property: the decoder must never
// panic or over-allocate, it accepts nothing but the empty posting and bytes
// under the 0x00 0x03 marker, and whatever it accepts must re-encode and
// decode to the same entries.
func checkRoundTrip(t *testing.T, data []byte) {
	post, err := DecodePosting(data)
	if err != nil {
		return
	}
	if !(len(data) == 1 && data[0] == 0x00) && !(len(data) >= 2 && data[0] == 0x00 && data[1] == 0x03) {
		t.Fatalf("decoded % x, which is neither empty nor marked 0x00 0x03", data)
	}
	if !sorted(post) {
		return
	}
	again, err := DecodePosting(EncodePosting(post))
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !reflect.DeepEqual(again, post) && len(again)+len(post) > 0 {
		t.Fatalf("re-decode = %v, want %v", again, post)
	}
}

// checkUpTo is the bounded-decode fuzz property: on every accepted input the
// bounded decode agrees with filtering the full decode.
func checkUpTo(t *testing.T, data []byte, bound int32) {
	if bound < 0 {
		bound = -bound
	}
	full, err := DecodePosting(data)
	if err != nil || !sorted(full) {
		return
	}
	got, err := DecodePostingUpTo(nil, data, bound)
	if err != nil {
		t.Fatalf("bounded decode rejected accepted input: %v", err)
	}
	var want []xmltree.NodeID
	for _, u := range full {
		if u <= bound {
			want = append(want, u)
		}
	}
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("bound %d: got %v, want %v", bound, got, want)
	}
}

// FuzzDecodePosting throws arbitrary bytes at the decoder. The retired
// codecs' encodings are seeds that must be rejected.
func FuzzDecodePosting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(EncodePosting([]xmltree.NodeID{1, 2, 3}))
	f.Add(flatVarintPosting)
	f.Add(blockedVarintPosting)
	rng := rand.New(rand.NewSource(17))
	f.Add(EncodePosting(randomPosting(rng, 3*BlockSize, 100)))
	f.Fuzz(checkRoundTrip)
}

// FuzzDecodePostingUpTo is FuzzDecodePosting for the bounded decode.
func FuzzDecodePostingUpTo(f *testing.F) {
	f.Add(EncodePosting([]xmltree.NodeID{1, 200, 300}), int32(250))
	f.Add(flatVarintPosting, int32(0))
	f.Add(blockedVarintPosting, int32(1000))
	f.Fuzz(checkUpTo)
}

// FuzzGroupVarint throws arbitrary bytes at the decoder under the 0x00 0x03
// marker, so every input reaches the block decoder.
func FuzzGroupVarint(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePosting([]xmltree.NodeID{1, 2, 3})[2:])
	rng := rand.New(rand.NewSource(37))
	f.Add(EncodePosting(randomPosting(rng, 3*BlockSize, 100))[2:])
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRoundTrip(t, append([]byte{0x00, 0x03}, body...))
	})
}

// FuzzGroupVarintUpTo is FuzzGroupVarint for the bounded decode.
func FuzzGroupVarintUpTo(f *testing.F) {
	f.Add(EncodePosting([]xmltree.NodeID{1, 200, 300})[2:], int32(250))
	rng := rand.New(rand.NewSource(41))
	f.Add(EncodePosting(randomPosting(rng, 2*BlockSize, 60))[2:], int32(900))
	f.Fuzz(func(t *testing.T, body []byte, bound int32) {
		checkUpTo(t, append([]byte{0x00, 0x03}, body...), bound)
	})
}

func BenchmarkEncodePosting(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	post := randomPosting(rng, 10_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodePosting(post)
	}
}

func BenchmarkDecodePostingInto(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	data := EncodePosting(randomPosting(rng, 10_000, 40))
	var buf []xmltree.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = DecodePostingInto(buf[:0], data)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePostingUpTo(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	post := randomPosting(rng, 10_000, 40)
	data := EncodePosting(post)
	bound := post[len(post)/10] // decode ~10%, skip ~90% of blocks
	var buf []xmltree.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = DecodePostingUpTo(buf[:0], data, bound)
		if err != nil {
			b.Fatal(err)
		}
	}
}
