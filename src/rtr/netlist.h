// Routed-netlist export/import — an XDL-flavoured text interchange format
// for routed designs.
//
// The paper positions JRoute as a base "to build tools" on (section 1);
// a human-readable dump of every net's PIP chain is the classic such
// tool: it diffs, it replays onto a blank device, and it documents a
// routed design independent of the binary configuration. Each line is:
//
//   net <name> <row> <col> <wireId>          # source pin
//   pip <row> <col> <fromWireId> <toWireId>  # one enabled PIP
//   pipx <row> <col> <fromWireId> <row2> <col2> <toWireId>  # direct conn.
//   end
//
// Wire names appear as trailing comments for readability; only the
// numeric fields are parsed.
#pragma once

#include <iosfwd>
#include <string>

#include "core/router.h"

namespace jroute {

/// Dump every live net of the fabric in source-to-sink PIP order.
std::string exportNetlist(const Fabric& fabric);

/// Replay a netlist onto a fabric (which may already hold other nets).
/// Returns the number of nets created. Throws ArgumentError on malformed
/// input and ContentionError if the design collides with existing nets.
/// All or nothing: on a throw, every net the call created is unrouted and
/// removed, so the fabric is left as it was.
int importNetlist(Fabric& fabric, std::istream& is);

}  // namespace jroute
