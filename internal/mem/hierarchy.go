package mem

// HierarchyConfig sizes the whole memory system. The zero value is not
// useful; DefaultHierarchyConfig returns Table 1's machine.
type HierarchyConfig struct {
	L1I CacheGeometry
	L1D CacheGeometry
	L2  CacheGeometry
	// MemoryLatency is DRAM access time in cycles.
	MemoryLatency uint64
	// IBanks is the number of instruction-cache banks available to a
	// parallel fetch unit (Table 1 / §5: 16 banks).
	IBanks int
}

// DefaultHierarchyConfig returns the paper's Table 1 memory system: 64 KB
// 2-way L1s with 64-byte blocks and 1-cycle access, a 1 MB 4-way unified L2
// with 128-byte blocks and 10-cycle access, and 100-cycle memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:           CacheGeometry{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 64, HitLatency: 1},
		L1D:           CacheGeometry{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 64, HitLatency: 1},
		L2:            CacheGeometry{SizeBytes: 1 << 20, Ways: 4, BlockBytes: 128, HitLatency: 10},
		MemoryLatency: 100,
		IBanks:        16,
	}
}

// Hierarchy is one processor's memory system.
type Hierarchy struct {
	L1I    *Cache
	L1D    *Cache
	L2     *Cache
	Memory *FixedLatency
	IBanks int
}

// NewHierarchy builds the configured memory system with a shared L2 behind
// both L1s.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	dram := &FixedLatency{Latency: cfg.MemoryLatency}
	l2 := NewCache("l2", cfg.L2, dram)
	banks := cfg.IBanks
	if banks <= 0 {
		banks = 1
	}
	return &Hierarchy{
		L1I:    NewCache("l1i", cfg.L1I, l2),
		L1D:    NewCache("l1d", cfg.L1D, l2),
		L2:     l2,
		Memory: dram,
		IBanks: banks,
	}
}

// CopyFrom copies src's three caches and its DRAM access count into h, which
// must be configured identically.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
	h.Memory.Accesses = src.Memory.Accesses
}

// Bytes is the footprint of the three caches' arrays.
func (h *Hierarchy) Bytes() int64 { return h.L1I.Bytes() + h.L1D.Bytes() + h.L2.Bytes() }

// IBankOf returns the instruction-cache bank serving addr: consecutive
// blocks map to consecutive banks, so parallel sequencers working on
// different fragments rarely collide while a single fragment streams
// through banks round-robin.
func (h *Hierarchy) IBankOf(addr uint64) int {
	return int(h.L1I.BlockOf(addr)) & (h.IBanks - 1)
}
