// Test fixture for the atomicmix analyzer's copy-on-write rule applied
// to the kvstore lease tables: a published table is immutable, and
// replacements go through leases.Store.
package leaseswap

import "sync/atomic"

type lease struct{ epoch int64 }

type leaseTable struct {
	leases []lease
}

type node struct {
	leases atomic.Pointer[leaseTable]
}

func swapWhole(n *node, fresh []lease) {
	n.leases.Store(&leaseTable{leases: fresh}) // the sanctioned path
}

func mutateDirect(n *node) {
	n.leases.Load().leases[0] = lease{epoch: 9} // want `plain write through a value loaded from atomic field leaseswap\.node\.leases`
}

func mutateField(n *node, fresh []lease) {
	n.leases.Load().leases = fresh // want `plain write through a value loaded from atomic field leaseswap\.node\.leases`
}

func appendDirect(n *node, l lease) {
	_ = append(n.leases.Load().leases, l) // want `append to a slice of a value loaded from atomic field leaseswap\.node\.leases`
}

func mutateViaLocal(n *node) {
	lt := n.leases.Load()
	lt.leases[0] = lease{epoch: 9} // want `plain write through a value loaded from atomic field leaseswap\.node\.leases`
}

// appendFullSlice caps the capacity with a three-index slice, so the
// append must copy into a fresh array: not a write to the table.
func appendFullSlice(n *node, l lease) []lease {
	lt := n.leases.Load()
	return append(lt.leases[:len(lt.leases):len(lt.leases)], l)
}

func readOnly(n *node, key int) *lease {
	lt := n.leases.Load()
	if len(lt.leases) == 0 {
		return nil
	}
	return &lt.leases[0]
}

func freshCopy(n *node) {
	lt := n.leases.Load()
	next := make([]lease, len(lt.leases))
	copy(next, lt.leases)
	next[0] = lease{epoch: 9}
	n.leases.Store(&leaseTable{leases: next})
}
