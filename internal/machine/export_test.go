package machine

// WrittenFrames returns the number of frames in the machine's write
// shadow, for the external tests of the write-shadow contract.
func (m *Machine) WrittenFrames() int { return len(m.frames) }
