package compile

import (
	"encoding/binary"
	"fmt"
	"strings"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
	"switchv/internal/packet"
)

// codec is the compiled parser/deparser: the interpreter resolves every
// "<prefix>.ipv4.ttl"-style field by string concatenation and map lookup
// per packet; the codec resolves each once at compile time into a fref
// and reuses one serialize buffer and one set of layer structs across
// packets. Its behavior — layer order, checksum recomputation, truncated
// transport handling — replicates bmv2's parse/deparse exactly, which
// the differential harness pins down.
type codec struct {
	hasEth, hasVlan, hasArp, hasGre bool
	hasIPv4, hasInner, hasIPv6      bool
	hasTCP, hasUDP, hasICMP         bool

	ethValid, ethDst, ethSrc, ethType             fref
	vlanValid, vlanPrio, vlanDE, vlanID, vlanType fref
	arpValid, arpOp, arpSender, arpTarget         fref
	ip4, inner                                    ipv4Refs
	ip6Valid, ip6DSCP, ip6ECN, ip6Flow            fref
	ip6Next, ip6Hop, ip6Src, ip6Dst               fref
	greValid, greProto                            fref
	tcpValid, tcpSrc, tcpDst, tcpFlags            fref
	udpValid, udpSrc, udpDst                      fref
	icmpValid, icmpType, icmpCode                 fref

	// Deparse scratch, reused across packets (a Pipeline is
	// single-goroutine, like the interpreter).
	flat []byte
}

// fref is a pre-resolved field reference; id < 0 when the model does not
// declare the field (writes are dropped, reads yield zero, mirroring the
// interpreter's setF/getF misses).
type fref struct {
	id, w int
}

type ipv4Refs struct {
	valid, dscp, ecn, ident, ttl, proto, src, dst fref
}

func newCodec(prog *ir.Program) *codec {
	pfx := headersPrefix(prog)
	ref := func(name string) fref {
		if f, ok := prog.FieldByName(pfx + "." + name); ok {
			return fref{f.ID, f.Width}
		}
		return fref{-1, 0}
	}
	has := func(instance string) bool {
		full := pfx + "." + instance
		for _, hi := range prog.HeaderInstances {
			if hi.Path == full {
				return true
			}
		}
		return false
	}
	ip4refs := func(instance string) ipv4Refs {
		return ipv4Refs{
			valid: ref(instance + ".$valid"),
			dscp:  ref(instance + ".dscp"),
			ecn:   ref(instance + ".ecn"),
			ident: ref(instance + ".identification"),
			ttl:   ref(instance + ".ttl"),
			proto: ref(instance + ".protocol"),
			src:   ref(instance + ".src_addr"),
			dst:   ref(instance + ".dst_addr"),
		}
	}
	return &codec{
		hasEth: has("ethernet"), hasVlan: has("vlan"), hasArp: has("arp"),
		hasGre: has("gre"), hasIPv4: has("ipv4"), hasInner: has("inner_ipv4"),
		hasIPv6: has("ipv6"), hasTCP: has("tcp"), hasUDP: has("udp"), hasICMP: has("icmp"),

		ethValid: ref("ethernet.$valid"), ethDst: ref("ethernet.dst_addr"),
		ethSrc: ref("ethernet.src_addr"), ethType: ref("ethernet.ether_type"),
		vlanValid: ref("vlan.$valid"), vlanPrio: ref("vlan.priority"),
		vlanDE: ref("vlan.drop_eligible"), vlanID: ref("vlan.vlan_id"), vlanType: ref("vlan.ether_type"),
		arpValid: ref("arp.$valid"), arpOp: ref("arp.operation"),
		arpSender: ref("arp.sender_ip"), arpTarget: ref("arp.target_ip"),
		ip4:      ip4refs("ipv4"),
		inner:    ip4refs("inner_ipv4"),
		ip6Valid: ref("ipv6.$valid"), ip6DSCP: ref("ipv6.dscp"), ip6ECN: ref("ipv6.ecn"),
		ip6Flow: ref("ipv6.flow_label"), ip6Next: ref("ipv6.next_header"),
		ip6Hop: ref("ipv6.hop_limit"), ip6Src: ref("ipv6.src_addr"), ip6Dst: ref("ipv6.dst_addr"),
		greValid: ref("gre.$valid"), greProto: ref("gre.protocol"),
		tcpValid: ref("tcp.$valid"), tcpSrc: ref("tcp.src_port"),
		tcpDst: ref("tcp.dst_port"), tcpFlags: ref("tcp.flags"),
		udpValid: ref("udp.$valid"), udpSrc: ref("udp.src_port"), udpDst: ref("udp.dst_port"),
		icmpValid: ref("icmp.$valid"), icmpType: ref("icmp.type"), icmpCode: ref("icmp.code"),
	}
}

// headersPrefix mirrors bmv2's: the parameter name holding the header
// instances, from the first instance path.
func headersPrefix(prog *ir.Program) string {
	if len(prog.HeaderInstances) == 0 {
		return "headers"
	}
	path := prog.HeaderInstances[0].Path
	if i := strings.IndexByte(path, '.'); i > 0 {
		return path[:i]
	}
	return path
}

func set(fs []value.V, r fref, v uint64) {
	if r.id >= 0 {
		fs[r.id] = value.New(v, r.w)
	}
}

func set128(fs []value.V, r fref, hi, lo uint64) {
	if r.id >= 0 {
		fs[r.id] = value.New128(hi, lo, r.w)
	}
}

func get(fs []value.V, r fref) uint64 {
	if r.id < 0 {
		return 0
	}
	return fs[r.id].Uint64()
}

func validF(fs []value.V, r fref) bool {
	return r.id >= 0 && !fs[r.id].IsZero()
}

func be48(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// parse decodes raw packet bytes onto the field space, returning the
// opaque payload — the same layering walk as the interpreter's parse.
func (c *codec) parse(fs []value.V, data []byte) (payload []byte, err error) {
	rest := data
	if !c.hasEth {
		return rest, fmt.Errorf("model has no ethernet header instance")
	}
	var eth packet.Ethernet
	rest, err = eth.DecodeFromBytes(rest)
	if err != nil {
		return nil, err
	}
	set(fs, c.ethValid, 1)
	set(fs, c.ethDst, be48(eth.DstMAC[:]))
	set(fs, c.ethSrc, be48(eth.SrcMAC[:]))
	set(fs, c.ethType, uint64(eth.EtherType))

	etherType := eth.EtherType
	if etherType == packet.EtherTypeVLAN && c.hasVlan {
		var vlan packet.VLAN
		rest, err = vlan.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		set(fs, c.vlanValid, 1)
		set(fs, c.vlanPrio, uint64(vlan.Priority))
		de := uint64(0)
		if vlan.DropElig {
			de = 1
		}
		set(fs, c.vlanDE, de)
		set(fs, c.vlanID, uint64(vlan.VLANID))
		set(fs, c.vlanType, uint64(vlan.EtherType))
		etherType = vlan.EtherType
	}

	switch etherType {
	case packet.EtherTypeARP:
		if !c.hasArp {
			return rest, nil
		}
		var arp packet.ARP
		rest, err = arp.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		set(fs, c.arpValid, 1)
		set(fs, c.arpOp, uint64(arp.Operation))
		set(fs, c.arpSender, uint64(arp.SenderIP.Uint32()))
		set(fs, c.arpTarget, uint64(arp.TargetIP.Uint32()))
		return rest, nil
	case packet.EtherTypeIPv4:
		return c.parseIPv4(fs, rest, false)
	case packet.EtherTypeIPv6:
		return c.parseIPv6(fs, rest)
	default:
		return rest, nil
	}
}

func (c *codec) parseIPv4(fs []value.V, data []byte, inner bool) ([]byte, error) {
	refs := &c.ip4
	if inner {
		refs = &c.inner
	}
	if (inner && !c.hasInner) || (!inner && !c.hasIPv4) {
		return data, nil
	}
	var ip packet.IPv4
	rest, err := ip.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	set(fs, refs.valid, 1)
	set(fs, refs.dscp, uint64(ip.DSCP()))
	set(fs, refs.ecn, uint64(ip.TOS&0x3))
	set(fs, refs.ident, uint64(ip.ID))
	set(fs, refs.ttl, uint64(ip.TTL))
	set(fs, refs.proto, uint64(ip.Protocol))
	set(fs, refs.src, uint64(ip.SrcIP.Uint32()))
	set(fs, refs.dst, uint64(ip.DstIP.Uint32()))
	if inner {
		// Inner headers end the parse; anything below is payload.
		return rest, nil
	}
	switch ip.Protocol {
	case packet.IPProtocolGRE:
		return c.parseGRE(fs, rest)
	default:
		return c.parseL4(fs, rest, ip.Protocol)
	}
}

func (c *codec) parseIPv6(fs []value.V, data []byte) ([]byte, error) {
	if !c.hasIPv6 {
		return data, nil
	}
	var ip packet.IPv6
	rest, err := ip.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	set(fs, c.ip6Valid, 1)
	set(fs, c.ip6DSCP, uint64(ip.DSCP()))
	set(fs, c.ip6ECN, uint64(ip.TrafficClass&0x3))
	set(fs, c.ip6Flow, uint64(ip.FlowLabel))
	set(fs, c.ip6Next, uint64(ip.NextHeader))
	set(fs, c.ip6Hop, uint64(ip.HopLimit))
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(ip.SrcIP[i])
		lo = lo<<8 | uint64(ip.SrcIP[i+8])
	}
	set128(fs, c.ip6Src, hi, lo)
	hi, lo = 0, 0
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(ip.DstIP[i])
		lo = lo<<8 | uint64(ip.DstIP[i+8])
	}
	set128(fs, c.ip6Dst, hi, lo)
	return c.parseL4(fs, rest, ip.NextHeader)
}

func (c *codec) parseGRE(fs []value.V, data []byte) ([]byte, error) {
	if !c.hasGre {
		return data, nil
	}
	var gre packet.GRE
	rest, err := gre.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	set(fs, c.greValid, 1)
	set(fs, c.greProto, uint64(gre.Protocol))
	if gre.Protocol == packet.EtherTypeIPv4 {
		return c.parseIPv4(fs, rest, true)
	}
	return rest, nil
}

// parseL4 decodes the transport layer; truncated transport headers do
// not fail the parse (the bytes stay opaque payload).
func (c *codec) parseL4(fs []value.V, data []byte, proto uint8) ([]byte, error) {
	switch proto {
	case packet.IPProtocolTCP:
		if !c.hasTCP {
			return data, nil
		}
		var tcp packet.TCP
		rest, err := tcp.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		set(fs, c.tcpValid, 1)
		set(fs, c.tcpSrc, uint64(tcp.SrcPort))
		set(fs, c.tcpDst, uint64(tcp.DstPort))
		set(fs, c.tcpFlags, uint64(tcp.Flags))
		return rest, nil
	case packet.IPProtocolUDP:
		if !c.hasUDP {
			return data, nil
		}
		var udp packet.UDP
		rest, err := udp.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		set(fs, c.udpValid, 1)
		set(fs, c.udpSrc, uint64(udp.SrcPort))
		set(fs, c.udpDst, uint64(udp.DstPort))
		return rest, nil
	case packet.IPProtocolICMPv4, packet.IPProtocolICMPv6:
		if !c.hasICMP {
			return data, nil
		}
		var ic packet.ICMPv4 // same leading layout as ICMPv6
		rest, err := ic.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		set(fs, c.icmpValid, 1)
		set(fs, c.icmpType, uint64(ic.Type))
		set(fs, c.icmpCode, uint64(ic.Code))
		return rest, nil
	default:
		return data, nil
	}
}

// deparse reconstructs packet bytes from the field space plus the opaque
// payload, recomputing lengths and checksums. It is a flat single-pass
// writer, but its output is byte-identical to the interpreter's
// SerializeLayers assembly: headers appear in the same fixed layer
// order, uncaptured fields (TCP seq/ack/window, IPv4 flags, ARP MACs)
// serialize as zero, and checksums are finalized innermost-first so an
// outer transport checksum covers the final bytes of inner headers.
func (c *codec) deparse(fs []value.V, payload []byte) ([]byte, error) {
	hasEth := validF(fs, c.ethValid)
	hasVlan := validF(fs, c.vlanValid)
	hasArp := validF(fs, c.arpValid)
	hasIP4 := validF(fs, c.ip4.valid)
	hasGre := validF(fs, c.greValid)
	hasInner := validF(fs, c.inner.valid)
	hasIP6 := validF(fs, c.ip6Valid)
	hasTCP := validF(fs, c.tcpValid)
	hasUDP := validF(fs, c.udpValid)
	hasICMP := validF(fs, c.icmpValid)

	total := len(payload)
	if hasEth {
		total += 14
	}
	if hasVlan {
		total += 4
	}
	if hasArp {
		total += 28
	}
	if hasIP4 {
		total += 20
	}
	if hasGre {
		total += 4
	}
	if hasInner {
		total += 20
	}
	if hasIP6 {
		total += 40
	}
	if hasTCP {
		total += 20
	}
	if hasUDP {
		total += 8
	}
	if hasICMP {
		total += 8
	}
	if cap(c.flat) < total {
		c.flat = make([]byte, total+256)
	}
	b := c.flat[:total]

	// Pass 1: write every header front to back, checksum fields zeroed.
	off := 0
	if hasEth {
		d := get(fs, c.ethDst)
		s := get(fs, c.ethSrc)
		for i := 0; i < 6; i++ {
			b[off+5-i] = byte(d >> uint(8*i))
			b[off+11-i] = byte(s >> uint(8*i))
		}
		binary.BigEndian.PutUint16(b[off+12:], uint16(get(fs, c.ethType)))
		off += 14
	}
	if hasVlan {
		prio := get(fs, c.vlanPrio)
		vid := get(fs, c.vlanID)
		if prio > 7 {
			return nil, fmt.Errorf("packet: VLAN priority %d out of range", prio)
		}
		if vid > 0x0fff {
			return nil, fmt.Errorf("packet: VLAN ID %d out of range", vid)
		}
		tci := uint16(prio)<<13 | uint16(vid)
		if get(fs, c.vlanDE) == 1 {
			tci |= 0x1000
		}
		binary.BigEndian.PutUint16(b[off:], tci)
		binary.BigEndian.PutUint16(b[off+2:], uint16(get(fs, c.vlanType)))
		off += 4
	}
	if hasArp {
		clear(b[off : off+28])
		binary.BigEndian.PutUint16(b[off:], 1) // Ethernet
		binary.BigEndian.PutUint16(b[off+2:], packet.EtherTypeIPv4)
		b[off+4] = 6 // hardware address length
		b[off+5] = 4 // protocol address length
		binary.BigEndian.PutUint16(b[off+6:], uint16(get(fs, c.arpOp)))
		binary.BigEndian.PutUint32(b[off+14:], uint32(get(fs, c.arpSender)))
		binary.BigEndian.PutUint32(b[off+24:], uint32(get(fs, c.arpTarget)))
		off += 28
	}
	writeIPv4 := func(off int, refs *ipv4Refs) {
		b[off] = 4<<4 | 5 // version 4, IHL 5 words
		b[off+1] = uint8(get(fs, refs.dscp))<<2 | uint8(get(fs, refs.ecn))
		binary.BigEndian.PutUint16(b[off+2:], uint16(total-off))
		binary.BigEndian.PutUint16(b[off+4:], uint16(get(fs, refs.ident)))
		binary.BigEndian.PutUint16(b[off+6:], 0) // flags, fragment offset
		b[off+8] = uint8(get(fs, refs.ttl))
		b[off+9] = uint8(get(fs, refs.proto))
		binary.BigEndian.PutUint16(b[off+10:], 0) // checksum, pass 2
		binary.BigEndian.PutUint32(b[off+12:], uint32(get(fs, refs.src)))
		binary.BigEndian.PutUint32(b[off+16:], uint32(get(fs, refs.dst)))
	}
	// netSrc/netDst: pseudo-header endpoints from the innermost network
	// layer, sliced out of the output buffer itself.
	var netSrc, netDst []byte
	ip4Off, innerOff, tcpOff, udpOff, icmpOff := -1, -1, -1, -1, -1
	if hasIP4 {
		ip4Off = off
		writeIPv4(off, &c.ip4)
		netSrc, netDst = b[off+12:off+16], b[off+16:off+20]
		off += 20
	}
	if hasGre {
		binary.BigEndian.PutUint16(b[off:], 0)
		binary.BigEndian.PutUint16(b[off+2:], uint16(get(fs, c.greProto)))
		off += 4
	}
	if hasInner {
		innerOff = off
		writeIPv4(off, &c.inner)
		netSrc, netDst = b[off+12:off+16], b[off+16:off+20]
		off += 20
	}
	if hasIP6 {
		tc := uint8(get(fs, c.ip6DSCP))<<2 | uint8(get(fs, c.ip6ECN))
		flow := uint32(get(fs, c.ip6Flow))
		b[off] = 6<<4 | tc>>4
		b[off+1] = tc<<4 | uint8(flow>>16)&0x0f
		b[off+2] = uint8(flow >> 8)
		b[off+3] = uint8(flow)
		binary.BigEndian.PutUint16(b[off+4:], uint16(total-off-40))
		b[off+6] = uint8(get(fs, c.ip6Next))
		b[off+7] = uint8(get(fs, c.ip6Hop))
		clear(b[off+8 : off+40])
		if c.ip6Src.id >= 0 {
			v := fs[c.ip6Src.id]
			binary.BigEndian.PutUint64(b[off+8:], v.Hi)
			binary.BigEndian.PutUint64(b[off+16:], v.Lo)
		}
		if c.ip6Dst.id >= 0 {
			v := fs[c.ip6Dst.id]
			binary.BigEndian.PutUint64(b[off+24:], v.Hi)
			binary.BigEndian.PutUint64(b[off+32:], v.Lo)
		}
		netSrc, netDst = b[off+8:off+24], b[off+24:off+40]
		off += 40
	}
	if hasTCP {
		tcpOff = off
		clear(b[off : off+20])
		binary.BigEndian.PutUint16(b[off:], uint16(get(fs, c.tcpSrc)))
		binary.BigEndian.PutUint16(b[off+2:], uint16(get(fs, c.tcpDst)))
		b[off+12] = 5 << 4 // data offset: 5 words
		b[off+13] = uint8(get(fs, c.tcpFlags))
		off += 20
	}
	if hasUDP {
		udpOff = off
		binary.BigEndian.PutUint16(b[off:], uint16(get(fs, c.udpSrc)))
		binary.BigEndian.PutUint16(b[off+2:], uint16(get(fs, c.udpDst)))
		binary.BigEndian.PutUint16(b[off+4:], uint16(total-off))
		binary.BigEndian.PutUint16(b[off+6:], 0)
		off += 8
	}
	if hasICMP {
		icmpOff = off
		clear(b[off : off+8])
		b[off] = uint8(get(fs, c.icmpType))
		b[off+1] = uint8(get(fs, c.icmpCode))
		off += 8
	}
	copy(b[off:], payload)

	// Pass 2: checksums, innermost layer first (the SerializeLayers
	// prepend order), so each covers the final bytes of layers below it.
	if icmpOff >= 0 {
		if hasIP6 {
			if netSrc != nil {
				sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolICMPv6, total-icmpOff)
				binary.BigEndian.PutUint16(b[icmpOff+2:], packet.InternetChecksum(b[icmpOff:], sum))
			}
		} else {
			binary.BigEndian.PutUint16(b[icmpOff+2:], packet.InternetChecksum(b[icmpOff:], 0))
		}
	}
	if udpOff >= 0 && netSrc != nil {
		sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolUDP, total-udpOff)
		ck := packet.InternetChecksum(b[udpOff:], sum)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted as all-ones
		}
		binary.BigEndian.PutUint16(b[udpOff+6:], ck)
	}
	if tcpOff >= 0 && netSrc != nil {
		sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolTCP, total-tcpOff)
		binary.BigEndian.PutUint16(b[tcpOff+16:], packet.InternetChecksum(b[tcpOff:], sum))
	}
	if innerOff >= 0 {
		binary.BigEndian.PutUint16(b[innerOff+10:], packet.InternetChecksum(b[innerOff:innerOff+20], 0))
	}
	if ip4Off >= 0 {
		binary.BigEndian.PutUint16(b[ip4Off+10:], packet.InternetChecksum(b[ip4Off:ip4Off+20], 0))
	}
	// The returned slice aliases the codec's reusable buffer and is only
	// valid until the next deparse; the caller copies it out if retained.
	return b, nil
}
