package core

// delayedRename is the paper's §4 "first solution" to parallel renaming —
// the Multiscalar-style scheme: no live-out prediction, no phase-1
// pre-allocation. Each renamer renames its fragment in order, but an
// instruction whose source is produced by an older fragment that has not
// yet renamed that register is DELAYED until the mapping becomes available;
// renamers exchange map-table updates as they go.
//
// The paper's assessment, which this model lets you measure (the "delayed"
// ablation experiment): it removes serialization completely and can never
// mispredict, but delayed instructions sit in fragment buffers longer,
// which throttles the fetch unit's lookahead.
type delayedRename struct {
	n     int
	width int
	be    Backend
	stats *Stats
	obs   *observer

	reserved reservation // window slots reserved for eligible fragments

	// assigned is the per-cycle renamer-assignment scratch, reused across
	// cycles.
	assigned []*fragState
}

func newDelayedRename(n, width int, be Backend, stats *Stats, obs *observer) *delayedRename {
	return &delayedRename{n: n, width: width, be: be, stats: stats, obs: obs}
}

func (dr *delayedRename) redirect(q *fragQueue) { dr.reserved.rebuild(q) }

func (dr *delayedRename) cycle(now uint64, q *fragQueue) {
	// Reorder-buffer allocation, in order, one fragment per cycle (the
	// same §4.2 allocation discipline as the live-out scheme). We borrow
	// the phase1Done flag to mean "eligible for a renamer".
	for i := 0; i < q.size(); i++ {
		fs := q.at(i)
		if fs.phase1Done {
			continue
		}
		if !dr.reserved.admit(dr.be, fs) {
			break
		}
		dr.obs.phase1(now, fs)
		break
	}

	// Snapshot rename progress before any renamer advances: mappings
	// produced this cycle become visible to other renamers only next
	// cycle, modelling the inter-renamer communication latency the paper
	// calls out.
	for i := 0; i < q.size(); i++ {
		fs := q.at(i)
		fs.renamedAtCycleStart = fs.renamed
	}

	assigned := dr.assigned[:0]
	for i := 0; i < q.size() && len(assigned) < dr.n; i++ {
		fs := q.at(i)
		if !fs.phase1Done || fs.renamed == fs.len() {
			continue
		}
		assigned = append(assigned, fs)
	}
	dr.assigned = assigned

	for lane, fs := range assigned {
		if !fs.firstRead {
			fs.firstRead = true
			dr.stats.FragReadByRename++
			if fs.complete {
				dr.stats.FragCompleteAtRename++
			}
		}
		first := fs.firstSeq()
		n := fs.fetched - fs.renamed
		if n > dr.width {
			n = dr.width
		}
		start := fs.renamed
		for i := 0; i < n; i++ {
			op := fs.ff.Ops[fs.renamed]
			blocked := false
			for p := 0; p < op.NProd; p++ {
				prod := op.Producers[p]
				if prod >= first {
					continue // intra-fragment: renamed in order
				}
				if !renamedBefore(q, prod) {
					blocked = true
					break
				}
			}
			if blocked {
				// Delay this instruction (and, since rename is
				// in-order within a fragment, the rest of the
				// fragment) until the mapping arrives.
				dr.stats.DelayedForMapping++
				break
			}
			dr.reserved.insert(dr.be, op)
			fs.renamed++
			dr.stats.Renamed++
		}
		dr.obs.phase2(now, fs, start, fs.renamed-start, lane)
	}
	q.removeRenamed()
}

// renamedBefore reports whether the producer of producerSeq had renamed it
// before this cycle began. A producer outside the queue has long since
// renamed; inside the queue, it must be below its fragment's start-of-cycle
// rename point.
func renamedBefore(q *fragQueue, producerSeq uint64) bool {
	for i := 0; i < q.size(); i++ {
		fs := q.at(i)
		first := fs.firstSeq()
		if producerSeq < first {
			continue
		}
		if producerSeq >= first+uint64(fs.len()) {
			continue
		}
		return int(producerSeq-first) < fs.renamedAtCycleStart
	}
	return true
}
