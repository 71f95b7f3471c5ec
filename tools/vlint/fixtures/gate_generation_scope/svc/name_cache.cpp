// A client-side cache outside the server tree.  Its private remove(slot)
// helper has nothing to do with the server hook of the same name: there is
// no gate and no generation on this side of the wire.
namespace v::svc {

void NameCache::put(std::string_view dir, const Binding& binding) {
  if (const std::uint32_t slot = find_slot(dir); slot != kNone) {
    remove(slot);
  }
  insert(dir, binding);
}

void NameCache::remove(std::uint32_t slot) {
  unlink(slot);
  slots_[slot].used = false;
}

}  // namespace v::svc
