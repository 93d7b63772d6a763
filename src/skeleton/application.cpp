#include "skeleton/application.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

#include "common/json.hpp"
#include "common/string_util.hpp"

namespace aimes::skeleton {

const SkelTask& SkeletonApplication::task(TaskId id) const {
  assert(id.valid() && id.value() <= tasks_.size());
  return tasks_[id.value() - 1];  // ids are dense, 1-based
}

const SkelFile& SkeletonApplication::file(FileId id) const {
  assert(id.valid() && id.value() <= files_.size());
  return files_[id.value() - 1];
}

SimDuration SkeletonApplication::total_compute() const {
  SimDuration total = SimDuration::zero();
  for (const auto& t : tasks_) total += t.duration;
  return total;
}

SimDuration SkeletonApplication::max_task_duration() const {
  SimDuration best = SimDuration::zero();
  for (const auto& t : tasks_) best = std::max(best, t.duration);
  return best;
}

DataSize SkeletonApplication::total_external_input() const {
  DataSize total;
  for (const auto& f : files_) {
    if (f.external()) total += f.size;
  }
  return total;
}

std::vector<bool> SkeletonApplication::consumed_flags() const {
  std::vector<bool> consumed(files_.size(), false);
  for (const auto& t : tasks_) {
    for (FileId f : t.inputs) consumed[f.value() - 1] = true;
  }
  return consumed;
}

DataSize SkeletonApplication::total_final_output() const {
  const std::vector<bool> consumed = consumed_flags();
  DataSize total;
  for (const auto& f : files_) {
    if (!f.external() && !consumed[f.id.value() - 1]) total += f.size;
  }
  return total;
}

int SkeletonApplication::max_task_cores() const {
  int best = 0;
  for (const auto& t : tasks_) best = std::max(best, t.cores);
  return best;
}

int SkeletonApplication::peak_concurrent_cores() const {
  int best = 0;
  for (const auto& s : stages_) {
    int demand = 0;
    for (std::size_t i = s.first_task; i < s.first_task + s.task_count; ++i) {
      demand += tasks_[i].cores;
    }
    best = std::max(best, demand);
  }
  return best;
}

bool SkeletonApplication::has_inter_task_data() const {
  for (const auto& t : tasks_) {
    for (FileId f : t.inputs) {
      if (!file(f).external()) return true;
    }
  }
  return false;
}

SkeletonApplication SkeletonApplication::stage_slice(std::size_t index) const {
  assert(index < stages_.size());
  const StageInfo& stage = stages_[index];

  SkeletonApplication out;
  out.name_ = name_ + "/" + stage.name;

  common::IdGen<common::TaskTag> task_ids;
  common::IdGen<common::FileTag> file_ids;
  // Old file id -> new file id, filled as files are copied.
  std::unordered_map<std::uint64_t, FileId> file_map;

  auto copy_file = [&](FileId old_id, TaskId new_producer) {
    auto it = file_map.find(old_id.value());
    if (it != file_map.end()) return it->second;
    const SkelFile& old_file = file(old_id);
    SkelFile copy;
    copy.id = file_ids.next();
    copy.name = old_file.name;
    copy.size = old_file.size;
    copy.producer = new_producer;  // invalid => external
    out.files_.push_back(copy);
    file_map.emplace(old_id.value(), copy.id);
    return copy.id;
  };

  StageInfo info;
  info.name = stage.name;
  info.first_task = 0;
  info.task_count = stage.task_count;
  for (std::size_t i = stage.first_task; i < stage.first_task + stage.task_count; ++i) {
    const SkelTask& old_task = tasks_[i];
    SkelTask task;
    task.id = task_ids.next();
    task.name = old_task.name;
    task.stage = 0;
    task.cores = old_task.cores;
    task.duration = old_task.duration;
    // Inputs become external: whoever produced them, the bytes now sit at
    // the origin.
    for (auto fid : old_task.inputs) {
      task.inputs.push_back(copy_file(fid, TaskId::invalid()));
    }
    for (auto fid : old_task.outputs) {
      task.outputs.push_back(copy_file(fid, task.id));
    }
    out.tasks_.push_back(std::move(task));
  }
  out.stages_.push_back(std::move(info));
  return out;
}

SkeletonApplication materialize(const SkeletonSpec& spec, std::uint64_t seed) {
  {
    auto status = spec.validate();
    assert(status.ok() && "materialize() requires a valid spec");
    (void)status;
  }
  common::Rng rng = common::Rng::stream(seed, "skeleton/" + spec.name);

  SkeletonApplication app;
  app.name_ = spec.name;

  common::IdGen<common::TaskTag> task_ids;
  common::IdGen<common::FileTag> file_ids;

  // Outputs of the most recently materialized stage, for mapping inputs.
  std::vector<FileId> prev_outputs;

  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (std::size_t si = 0; si < spec.stages.size(); ++si) {
      const StageSpec& stage = spec.stages[si];
      StageInfo info;
      info.name = spec.iterations > 1
                      ? stage.name + ".it" + std::to_string(iter)
                      : stage.name;
      info.first_task = app.tasks_.size();
      info.task_count = static_cast<std::size_t>(stage.tasks);

      // Effective mapping: iterations > 1 feed the previous iteration's
      // tail outputs into stage 0 round-robin instead of external files.
      InputMapping mapping = stage.input_mapping;
      if (si == 0 && iter > 0 && mapping == InputMapping::kExternal) {
        mapping = InputMapping::kRoundRobin;
      }

      std::vector<FileId> stage_outputs;
      for (int ti = 0; ti < stage.tasks; ++ti) {
        SkelTask task;
        task.id = task_ids.next();
        task.name = app.name_ + "/" + info.name + "/t" + std::to_string(ti);
        task.stage = static_cast<int>(app.stages_.size());
        task.cores = stage.cores_per_task;
        task.duration = SimDuration::seconds(std::max(1.0, stage.duration.sample(rng)));

        switch (mapping) {
          case InputMapping::kExternal:
            for (int fi = 0; fi < stage.inputs_per_task; ++fi) {
              SkelFile file;
              file.id = file_ids.next();
              file.name = task.name + ".in" + std::to_string(fi);
              file.size = DataSize::bytes(static_cast<std::int64_t>(
                  std::max(0.0, stage.input_size.sample(rng))));
              app.files_.push_back(file);
              task.inputs.push_back(file.id);
            }
            break;
          case InputMapping::kOneToOne:
            if (!prev_outputs.empty()) {
              task.inputs.push_back(prev_outputs[static_cast<std::size_t>(ti) %
                                                 prev_outputs.size()]);
            }
            break;
          case InputMapping::kAllToOne:
            task.inputs = prev_outputs;
            break;
          case InputMapping::kRoundRobin:
            for (std::size_t k = static_cast<std::size_t>(ti); k < prev_outputs.size();
                 k += static_cast<std::size_t>(stage.tasks)) {
              task.inputs.push_back(prev_outputs[k]);
            }
            break;
        }

        for (int fo = 0; fo < stage.outputs_per_task; ++fo) {
          SkelFile file;
          file.id = file_ids.next();
          file.name = task.name + ".out" + std::to_string(fo);
          file.size = DataSize::bytes(static_cast<std::int64_t>(
              std::max(0.0, stage.output_size.sample(rng))));
          file.producer = task.id;
          app.files_.push_back(file);
          task.outputs.push_back(file.id);
          stage_outputs.push_back(file.id);
        }
        app.tasks_.push_back(std::move(task));
      }
      app.stages_.push_back(std::move(info));
      prev_outputs = std::move(stage_outputs);
    }
  }
  return app;
}

std::string to_shell_script(const SkeletonApplication& app) {
  std::ostringstream out;
  out << "#!/bin/sh\n";
  out << "# Skeleton application '" << app.name() << "' — sequential execution order.\n";
  out << "# Generated by aimes-cpp; every task copies inputs to RAM, sleeps for its\n";
  out << "# runtime, and writes its outputs (the skeleton task executable model).\n\n";
  out << "set -e\nmkdir -p input output\n\n";
  for (const auto& f : app.files()) {
    if (f.external()) {
      out << "truncate -s " << f.size.count_bytes() << " 'input/" << f.name << "'\n";
    }
  }
  out << "\n";
  for (const auto& t : app.tasks()) {
    out << "# stage " << t.stage << "\n";
    out << "skeleton-task --name '" << t.name << "' --sleep " << t.duration.to_seconds();
    for (auto f : t.inputs) out << " --in '" << app.file(f).name << "'";
    for (auto f : t.outputs) {
      out << " --out '" << app.file(f).name << ":" << app.file(f).size.count_bytes() << "'";
    }
    out << "\n";
  }
  return out.str();
}

std::string to_json(const SkeletonApplication& app) {
  std::ostringstream out;
  out << "{\n  \"name\": \"" << common::json::escape(app.name()) << "\",\n  \"tasks\": [\n";
  for (std::size_t i = 0; i < app.tasks().size(); ++i) {
    const auto& t = app.tasks()[i];
    out << "    {\"id\": " << t.id.value() << ", \"name\": \"" << common::json::escape(t.name)
        << "\", \"stage\": " << t.stage << ", \"cores\": " << t.cores
        << ", \"duration_s\": " << t.duration.to_seconds() << ", \"inputs\": [";
    for (std::size_t k = 0; k < t.inputs.size(); ++k) {
      out << (k ? ", " : "") << t.inputs[k].value();
    }
    out << "], \"outputs\": [";
    for (std::size_t k = 0; k < t.outputs.size(); ++k) {
      out << (k ? ", " : "") << t.outputs[k].value();
    }
    out << "]}" << (i + 1 < app.tasks().size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"files\": [\n";
  for (std::size_t i = 0; i < app.files().size(); ++i) {
    const auto& f = app.files()[i];
    out << "    {\"id\": " << f.id.value() << ", \"name\": \"" << common::json::escape(f.name)
        << "\", \"bytes\": " << f.size.count_bytes() << ", \"producer\": "
        << (f.external() ? 0 : f.producer.value()) << "}"
        << (i + 1 < app.files().size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace aimes::skeleton
