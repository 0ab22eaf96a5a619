#include "src/tcl/interp.hpp"

namespace dovado::tcl {

Interp::Interp() : words_(kMaxDepth + 1) {
  register_command("set", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() == 2) return in.get_var(a[1]);
    if (a.size() == 3) {
      in.set_var(a[1], a[2]);
      return a[2];
    }
    fail("wrong # args: should be \"set varName ?newValue?\"");
  });
}

void Interp::register_command(const std::string& name, Command fn) {
  commands_[name] = std::move(fn);
}

std::vector<std::string> Interp::command_names() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : commands_) names.push_back(name);
  return names;
}

void Interp::set_var(const std::string& name, const std::string& value) {
  vars_[name] = value;
}

std::string Interp::get_var(const std::string& name) const { return var_ref(name); }

const std::string& Interp::var_ref(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) fail("can't read \"" + name + "\": no such variable");
  return it->second;
}

bool Interp::has_var(const std::string& name) const { return vars_.count(name) != 0; }

std::string Interp::invoke(const std::vector<std::string>& words) {
  if (words.empty()) return {};
  auto it = commands_.find(words[0]);
  if (it == commands_.end()) fail("invalid command name \"" + words[0] + "\"");
  return it->second(*this, words);
}

Interp::Compiled Interp::compile(std::string_view text) {
  if (auto it = scripts_.find(text); it != scripts_.end()) return it->second;
  if (scripts_.size() >= kMemoCapacity) scripts_.clear();
  Compiled compiled = std::make_shared<const ScriptNode>(parse_script(text));
  scripts_.emplace(std::string(text), compiled);
  return compiled;
}

void Interp::expand(const WordNode& word, std::string& into) {
  if (word.is_literal()) {
    into.assign(word.literal());
    return;
  }
  into.clear();
  for (const WordPart& part : word.parts) {
    switch (part.kind) {
      case WordPart::Kind::kText: into += part.text; break;
      case WordPart::Kind::kVar: into += var_ref(part.text); break;
      case WordPart::Kind::kScript: into += run(*part.script); break;
    }
  }
}

std::vector<std::string>& Interp::expand(const CommandNode& command) {
  // This depth's words. A `[...]` in a word runs one level deeper, and so
  // does a script a command evaluates, so nothing overwrites these words
  // while the command that reads them runs.
  std::vector<std::string>& words = words_[static_cast<std::size_t>(depth_)];
  // Resize without dropping buffers: a shorter command parks the extra
  // strings in spare_words_, and a longer one takes them back.
  const std::size_t count = command.words.size();
  for (; words.size() > count; words.pop_back()) spare_words_.push_back(std::move(words.back()));
  for (; words.size() < count; spare_words_.pop_back()) {
    if (spare_words_.empty()) {
      words.resize(count);
      break;
    }
    words.push_back(std::move(spare_words_.back()));
  }
  for (std::size_t i = 0; i < command.words.size(); ++i) expand(command.words[i], words[i]);
  return words;
}

std::string Interp::run(const ScriptNode& script) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    fail("too many nested evaluations");
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{depth_};

  std::string last_result;
  const std::size_t complete = script.commands.size() - (script.ok ? 0 : 1);
  for (std::size_t i = 0; i < complete; ++i) last_result = invoke(expand(script.commands[i]));
  if (!script.ok) {
    (void)expand(script.commands.back());
    fail(script.error);
  }
  return last_result;
}

std::vector<std::string> Interp::take_output() {
  std::vector<std::string> taken = std::move(output_);
  output_.clear();
  output_.reserve(taken.size());
  return taken;
}

std::string Interp::eval_or_throw(std::string_view script) {
  const Compiled compiled = compile(script);
  return run(*compiled);
}

EvalResult Interp::eval(std::string_view script) {
  EvalResult result;
  try {
    result.value = eval_or_throw(script);
    result.ok = true;
  } catch (const TclError& e) {
    result.error = e.message;
  }
  return result;
}

}  // namespace dovado::tcl
