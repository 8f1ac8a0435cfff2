// Package channel defines the OFDM frequency grid of the paper's testbed —
// IEEE 802.11n, 2.4 GHz channel 11, 20 MHz bandwidth — and the subcarrier
// subset the Intel 5300 CSI Tool reports (the 30 indices listed in the
// paper's footnote 1). It also provides the AWGN model applied to channel
// responses before CSI extraction (AddAWGNInPlace), which backs the
// allocation-free capture pipeline in internal/csi.
package channel
