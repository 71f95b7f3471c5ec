// A correctly gated server: its remove hook is annotated and notes the
// write on the success path, so the name `remove` is a gated hook.
#include "common/annotate.hpp"

namespace v::servers {

V_GATED_MUTATION
sim::Co<ReplyCode> GoodServer::remove(ipc::Process& self, ContextId ctx,
                                      std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  table_.erase(std::string(leaf));
  co_return ReplyCode::kOk;
}

}  // namespace v::servers
