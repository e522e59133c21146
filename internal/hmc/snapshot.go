package hmc

import (
	"fmt"
	"slices"
)

// SaveState copies the device's state. Every slice is deep-copied so the
// snapshot stays valid while the run continues.
func (d *Device) SaveState() DeviceState {
	st := d.DeviceState
	for _, s := range st.resources() {
		*s = slices.Clone(*s)
	}
	st.Completed = append(pendingHeap(nil), d.Completed...)
	return st
}

// RestoreState overwrites the device's state from a snapshot taken on an
// identically configured device. The device keeps its own storage; the
// pop buffer is transient (consumed per PopCompleted call) and restored
// empty. The caller re-installs the fault injector.
func (d *Device) RestoreState(st DeviceState) error {
	own := d.resources()
	for i, s := range st.resources() {
		if len(*s) != len(*own[i]) {
			return fmt.Errorf("hmc: restoring %d %s entries into a device with %d", len(*s), resourceNames[i], len(*own[i]))
		}
		copy(*own[i], *s)
		*s = *own[i]
	}
	st.Completed = append(d.Completed[:0], st.Completed...)
	d.DeviceState = st
	d.popBuf = d.popBuf[:0]
	return nil
}

var resourceNames = [5]string{"link-tx", "link-rx", "vault", "bank", "open-row"}

// resources lists the state's per-resource timing tables, whose lengths
// the device geometry fixes.
func (st *DeviceState) resources() [5]*[]int64 {
	return [5]*[]int64{&st.LinkTxFree, &st.LinkRxFree, &st.VaultFree, &st.BankFree, &st.OpenRow}
}
