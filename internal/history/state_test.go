package history

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/statecodec"
	"repro/internal/xrand"
)

// TestBufferStatePinned pins the snapshot bytes of a buffer after a fixed
// push sequence. The encoding is part of every TAGE and O-GEHL snapshot,
// so a change to how the buffer stores its bits must encode the same
// bytes. The sizes are the smallest packed image (8 bits, one byte) and
// the 256 Kbit TAGE's 512-bit buffer; 1001 pushes leave head off zero.
func TestBufferStatePinned(t *testing.T) {
	for _, tc := range []struct {
		capacity, size int
		want           string
	}{
		{6, 8, "89225bff4421affe9d072fec13e0f539eadd9cdc406720933e66a4a6e0578b96"},
		{300, 512, "2f4bc71a55b4adf037b04591ca597c513f57d526dcd391ebf8fbfd604f7260f8"},
	} {
		b := NewBuffer(tc.capacity)
		if b.Len() != tc.size {
			t.Fatalf("NewBuffer(%d).Len() = %d, want %d", tc.capacity, b.Len(), tc.size)
		}
		r := xrand.New(7)
		for i := 0; i < 1001; i++ {
			b.Push(r.Bool())
		}
		img := b.AppendState([]byte{0xA5})
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("size %d: state SHA-256 %s, want %s", tc.size, got, tc.want)
		}

		restored := NewBuffer(tc.capacity)
		rd := statecodec.NewReader(img[1:])
		if err := restored.RestoreState(rd); err != nil {
			t.Fatalf("size %d: restore: %v", tc.size, err)
		}
		if err := rd.Finish(); err != nil {
			t.Fatalf("size %d: restore left bytes: %v", tc.size, err)
		}
		for i := 0; i < tc.size; i++ {
			if restored.Bit(i) != b.Bit(i) {
				t.Fatalf("size %d: restored Bit(%d) = %d, want %d", tc.size, i, restored.Bit(i), b.Bit(i))
			}
		}
		if again := restored.AppendState([]byte{0xA5}); string(again) != string(img) {
			t.Errorf("size %d: re-encoded state differs from the original", tc.size)
		}
	}
}

// ring is the circular buffer whose bytes AppendState writes: the newest
// outcome at physical bit head, head moving down one per push.
type ring struct {
	bits []byte
	head int
}

func (r *ring) push(bit byte) {
	r.head = (r.head - 1) & (len(r.bits) - 1)
	r.bits[r.head] = bit
}

func (r *ring) state() []byte {
	size := len(r.bits)
	dst := binary.AppendUvarint(nil, uint64(size))
	dst = binary.AppendUvarint(dst, uint64(r.head))
	packed := make([]byte, (size+7)/8)
	for p, bit := range r.bits {
		packed[p/8] |= bit << (p % 8)
	}
	return append(dst, packed...)
}

// TestBufferMatchesRing drives the linear window across many slides,
// including a size above the slide distance, and checks every Bit and
// the snapshot bytes against the ring they encode; a buffer restored
// mid-stream must continue identically.
func TestBufferMatchesRing(t *testing.T) {
	for _, capacity := range []int{1, 6, 300, 6000} {
		b := NewBuffer(capacity)
		ref := &ring{bits: make([]byte, b.Len())}
		r := xrand.New(uint64(capacity))
		for i := 0; i < 3*b.Len()+3*bufferSlide+7; i++ {
			bit := byte(r.Intn(2))
			b.Push(bit == 1)
			ref.push(bit)
			if i%997 != 0 {
				continue
			}
			for j := 0; j < b.Len(); j++ {
				if got, want := b.Bit(j), ref.bits[(ref.head+j)&(b.Len()-1)]; got != want {
					t.Fatalf("size %d, push %d: Bit(%d) = %d, want %d", b.Len(), i, j, got, want)
				}
			}
			img := b.AppendState(nil)
			if string(img) != string(ref.state()) {
				t.Fatalf("size %d, push %d: state bytes differ from the ring's", b.Len(), i)
			}
			restored := NewBuffer(capacity)
			if err := restored.RestoreState(statecodec.NewReader(img)); err != nil {
				t.Fatal(err)
			}
			if !restored.Equal(b) {
				t.Fatalf("size %d, push %d: restored buffer differs", b.Len(), i)
			}
			b = restored
		}
	}
}
