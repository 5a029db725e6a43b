package tpcc

import (
	"strconv"

	"noftl"
)

// Index key constructors.  All keys are order-preserving composite keys so
// range and prefix scans work (big-endian uint32 components from
// noftl.AppendKey, strings terminated with a 0 byte); each appends to dst.

func warehouseKey(dst []byte, w int) []byte               { return key(dst, w) }
func districtKey(dst []byte, w, d int) []byte             { return key(dst, w, d) }
func customerKey(dst []byte, w, d, c int) []byte          { return key(dst, w, d, c) }
func itemKey(dst []byte, i int) []byte                    { return key(dst, i) }
func stockKey(dst []byte, w, i int) []byte                { return key(dst, w, i) }
func newOrderKey(dst []byte, w, d, o int) []byte          { return key(dst, w, d, o) }
func orderKey(dst []byte, w, d, o int) []byte             { return key(dst, w, d, o) }
func orderLineKey(dst []byte, w, d, o, number int) []byte { return key(dst, w, d, o, number) }

// orderCustKey indexes orders by customer so OrderStatus can find the most
// recent order of a customer with a prefix scan.
func orderCustKey(dst []byte, w, d, c, o int) []byte { return key(dst, w, d, c, o) }

// customerNameKey indexes customers by (w, d, last name, id); the id suffix
// makes the key unique within the non-unique name index.
func customerNameKey(dst []byte, w, d int, last string, c int) []byte {
	return key(customerNamePrefix(dst, w, d, last), c)
}

// Scan prefixes: the customers with a last name (the name and a 0
// terminator), the undelivered orders of a district, the orders
// of a customer and the lines of one order.
func customerNamePrefix(dst []byte, w, d int, last string) []byte {
	return append(append(key(dst, w, d), last...), 0)
}
func newOrderPrefix(dst []byte, w, d int) []byte     { return key(dst, w, d) }
func orderCustPrefix(dst []byte, w, d, c int) []byte { return key(dst, w, d, c) }
func orderLinePrefix(dst []byte, w, d, o int) []byte { return key(dst, w, d, o) }

// key appends the composite key of uint32 components.
func key(dst []byte, parts ...int) []byte {
	for _, p := range parts {
		dst = noftl.AppendKey(dst, uint32(p))
	}
	return dst
}

// lockNames holds every lock name a run can take, tag:id:id... in decimal
// (the lock table keys its map by the name).  Setup builds each kind once, as
// substrings of one string, so a name costs only its string header.
type lockNames struct {
	districts, customers, items                    int
	warehouse, district, delivery, customer, stock []string
}

func newLockNames(cfg Config) lockNames {
	w, d, c, i := cfg.Warehouses, cfg.DistrictsPerWarehouse, cfg.CustomersPerDistrict, cfg.ItemCount
	return lockNames{districts: d, customers: c, items: i, warehouse: names("W", w), district: names("D", w, d),
		delivery: names("DLV", w, d), customer: names("C", w, d, c), stock: names("S", w, i)}
}

func (n *lockNames) warehouseLock(w int) string   { return n.warehouse[w-1] }
func (n *lockNames) districtLock(w, d int) string { return n.district[(w-1)*n.districts+d-1] }
func (n *lockNames) deliveryLock(w, d int) string { return n.delivery[(w-1)*n.districts+d-1] }
func (n *lockNames) stockLock(w, i int) string    { return n.stock[(w-1)*n.items+i-1] }
func (n *lockNames) customerLock(w, d, c int) string {
	return n.customer[((w-1)*n.districts+d-1)*n.customers+c-1]
}

// names returns the name tag:id:id... of every tuple of ids in [1, dims[0]] x
// [1, dims[1]] x ..., the last id varying fastest, as substrings of one string.
func names(tag string, dims ...int) []string {
	count := 1
	for _, n := range dims {
		count *= n
	}
	buf, ends := []byte(nil), make([]int, count+1)
	for k := range count {
		buf = append(buf, tag...)
		for stride, j := count, 0; j < len(dims); j++ {
			stride /= dims[j]
			buf = strconv.AppendInt(append(buf, ':'), int64(k/stride%dims[j]+1), 10)
		}
		ends[k+1] = len(buf)
	}
	all, out := string(buf), make([]string, count)
	for k := range out {
		out[k] = all[ends[k]:ends[k+1]]
	}
	return out
}
