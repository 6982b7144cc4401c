package tage

// Packed one-word tagged-table entry layout. Each entry folds the three
// per-entry fields — partial tag, signed prediction counter, useful
// counter — into a single uint32, the way hardware TAGE implementations
// lay one entry out as one SRAM word:
//
//	bits  0..15  tag  (Config.TagBits <= 16, stored right-aligned)
//	bits 16..21  ctr  (two's complement; Config.CtrBits <= 6)
//	bits 22..25  u    (Config.UBits <= 4)
//	bits 26..31  unused
//
// The field widths are the maxima Config.Validate admits, so every legal
// configuration fits without per-config shift tables. A tagged-table
// probe therefore costs one 32-bit load where the previous
// structure-of-arrays layout (separate ctr/tag/u slices) cost three
// loads from three cache lines.
const (
	entryTagBits = 16
	entryCtrBits = 6
	entryUBits   = 4

	entryCtrShift = entryTagBits
	entryUShift   = entryTagBits + entryCtrBits

	entryCtrMask uint32 = (1<<entryCtrBits - 1) << entryCtrShift
	entryUMask   uint32 = (1<<entryUBits - 1) << entryUShift
)

// packEntry assembles an entry word. ctr is masked to its two's
// complement field; tag and u are assumed in range (tag is computed
// under tagMask, u under the UBits saturation bound).
//
//repro:hotpath
func packEntry(tag uint16, ctr int8, u uint8) uint32 {
	return uint32(tag) |
		uint32(ctr)&(1<<entryCtrBits-1)<<entryCtrShift |
		uint32(u)<<entryUShift
}

// entryTag extracts the stored partial tag.
//
//repro:hotpath
func entryTag(e uint32) uint16 { return uint16(e) }

// entryCtr extracts the prediction counter, sign-extending the 6-bit
// field to int8.
//
//repro:hotpath
func entryCtr(e uint32) int8 {
	return int8(uint8(e>>entryCtrShift)<<(8-entryCtrBits)) >> (8 - entryCtrBits)
}

// entryU extracts the useful counter.
//
//repro:hotpath
func entryU(e uint32) uint8 { return uint8(e>>entryUShift) & (1<<entryUBits - 1) }

// entrySetCtr returns e with the prediction counter replaced.
//
//repro:hotpath
func entrySetCtr(e uint32, ctr int8) uint32 {
	return e&^entryCtrMask | uint32(ctr)&(1<<entryCtrBits-1)<<entryCtrShift
}

// entrySetU returns e with the useful counter replaced.
//
//repro:hotpath
func entrySetU(e uint32, u uint8) uint32 {
	return e&^entryUMask | uint32(u)<<entryUShift
}

// entryAgeU returns e with the useful counter aged one bit right — the
// periodic graceful-reset transform. Shifting the whole u field right
// inside the word and re-masking drops the bit that crosses into the ctr
// field, which is exactly u >>= 1.
//
//repro:hotpath
func entryAgeU(e uint32) uint32 {
	return e&^entryUMask | (e&entryUMask)>>1&entryUMask
}
